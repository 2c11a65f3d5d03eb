package elastic

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/store"
)

// Cross-process verification protocol: a worker that completes its run
// publishes a record of its final step and a parameter hash under
// ResultKey; the supervisor reads every finisher's record and compares
// them byte-for-byte. Both sides of ddptrain's -elastic -launch mode
// and the cross-process integration test speak exactly this format.

// ResultKey returns the store key worker id publishes its completion
// record under.
func ResultKey(prefix, id string) string { return prefix + "/result/" + id }

// FormatResult renders a worker's completion record: its final step and
// replica.Hash of its parameters, so equality of records means the
// replicas agree bit for bit.
func FormatResult(step int64, m nn.Module) string {
	return fmt.Sprintf("step=%d hash=%016x", step, replica.Hash(m.Parameters()))
}

// PublishResult writes the completion record for worker id.
func PublishResult(st store.Store, prefix, id string, step int64, m nn.Module) error {
	return st.Set(ResultKey(prefix, id), []byte(FormatResult(step, m)))
}
