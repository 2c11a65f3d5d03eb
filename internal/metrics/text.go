package metrics

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteTo renders every family in Prometheus text exposition format
// (version 0.0.4): families sorted by name, each with its HELP and TYPE
// lines even before its first sample, children sorted by label values, histogram buckets cumulative and terminated by +Inf, help and
// label values escaped per the format's rules.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	cw := &countingWriter{w: bufio.NewWriter(w)}
	for _, f := range fams {
		f.write(cw)
		if cw.err != nil {
			return cw.n, cw.err
		}
	}
	if err := cw.w.(*bufio.Writer).Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) WriteString(s string) {
	if cw.err != nil {
		return
	}
	n, err := io.WriteString(cw.w, s)
	cw.n += int64(n)
	cw.err = err
}

func (f *family) write(cw *countingWriter) {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*child, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.RUnlock()

	if f.help != "" {
		cw.WriteString("# HELP " + f.name + " " + escapeHelp(f.help) + "\n")
	}
	cw.WriteString("# TYPE " + f.name + " " + f.kind.String() + "\n")
	for _, c := range children {
		if f.kind == kindHistogram {
			f.writeHistogram(cw, c)
			continue
		}
		cw.WriteString(f.name + labelSet(f.labels, c.values, "", "") + " " +
			formatValue(math.Float64frombits(c.bits.Load())) + "\n")
	}
}

func (f *family) writeHistogram(cw *countingWriter, c *child) {
	var cum uint64
	for i, b := range f.bounds {
		cum += c.counts[i].Load()
		cw.WriteString(f.name + "_bucket" + labelSet(f.labels, c.values, "le", formatValue(b)) + " " +
			strconv.FormatUint(cum, 10) + "\n")
	}
	cum += c.counts[len(f.bounds)].Load()
	cw.WriteString(f.name + "_bucket" + labelSet(f.labels, c.values, "le", "+Inf") + " " +
		strconv.FormatUint(cum, 10) + "\n")
	cw.WriteString(f.name + "_sum" + labelSet(f.labels, c.values, "", "") + " " +
		formatValue(math.Float64frombits(c.sumBits.Load())) + "\n")
	cw.WriteString(f.name + "_count" + labelSet(f.labels, c.values, "", "") + " " +
		strconv.FormatUint(c.count.Load(), 10) + "\n")
}

// labelSet renders {name="value",...} in declaration order, appending
// the extra pair (histograms' le) last. No labels renders as "".
func labelSet(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(extraValue))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }
