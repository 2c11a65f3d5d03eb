package lint

import (
	"go/ast"
)

// MetricStatic reports metrics-instrument construction outside
// package-level var initializers and init functions. The registry keeps
// every family it has ever seen, so constructing an instrument per call
// in a hot path (per step, per collective, per connection) leaks
// registry entries and serializes on the registry lock; instruments
// must be process-lifetime statics, with label Vecs (With) as the
// dynamic axis.
var MetricStatic = &Analyzer{
	Name: "metricstatic",
	Doc:  "metrics instruments must be constructed in package-level vars or init, never per call",
	Run:  runMetricStatic,
}

// metricCtors are the (*metrics.Registry) instrument constructors.
var metricCtors = map[string]bool{
	"Counter": true, "CounterVec": true,
	"Gauge": true, "GaugeVec": true,
	"Histogram": true, "HistogramVec": true,
}

func runMetricStatic(pkg *Package) []Finding {
	if hasPathSuffix(pkg.Path, "internal/metrics") {
		// The metrics package itself implements the constructors.
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "init" && fd.Recv == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(pkg.Info, call)
				if fn == nil || !metricCtors[fn.Name()] || !pkgHasSuffix(fn, "internal/metrics") {
					return true
				}
				// Only the Registry constructors count; Vec.With is the
				// sanctioned dynamic path and lives on the Vec types.
				if fn.Signature().Recv() == nil {
					return true
				}
				out = append(out, pkg.finding("metricstatic", call,
					"metrics instrument constructed in function %s; construct it in a package-level var (or init) and reuse it",
					fd.Name.Name))
				return true
			})
		}
	}
	return out
}
