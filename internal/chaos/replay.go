package chaos

// Replay re-executes a JSON reproducer (Schedule.Encode output)
// verbatim: the schedule must already be in normal form — a reproducer
// that would be silently repaired is not reproducing anything.
func Replay(data []byte) (*Report, error) {
	return ReplayWithOptions(data, Options{})
}

// ReplayWithOptions is Replay under non-default options (e.g. the
// planted-bug canary, whose reproducers only fail with the bug armed).
func ReplayWithOptions(data []byte, opts Options) (*Report, error) {
	s, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if _, err := Validate(s); err != nil {
		return nil, err
	}
	return RunWithOptions(s, opts), nil
}
