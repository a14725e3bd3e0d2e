package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
	"time"
)

// flagDefaults parses a command's main.go and returns the default of
// every flag.Int / Int64 / Duration it declares, durations in
// nanoseconds.
func flagDefaults(t *testing.T, path string) map[string]int64 {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isIdent(sel.X, "flag") {
			return true
		}
		switch sel.Sel.Name {
		case "Int", "Int64", "Duration":
		default:
			return true
		}
		name, ok := call.Args[0].(*ast.BasicLit)
		if !ok {
			return true
		}
		key, err := strconv.Unquote(name.Value)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := constValue(call.Args[1])
		if !ok {
			t.Fatalf("%s: cannot evaluate the default of -%s", path, key)
		}
		out[key] = v
		return true
	})
	return out
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// constValue evaluates the default expressions the commands use:
// integer literals, time.<Unit>, and products of those.
func constValue(e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		v, err := strconv.ParseInt(e.Value, 0, 64)
		return v, err == nil && e.Kind == token.INT
	case *ast.SelectorExpr:
		if !isIdent(e.X, "time") {
			return 0, false
		}
		unit, ok := map[string]time.Duration{
			"Nanosecond": time.Nanosecond, "Microsecond": time.Microsecond,
			"Millisecond": time.Millisecond, "Second": time.Second, "Minute": time.Minute,
		}[e.Sel.Name]
		return int64(unit), ok
	case *ast.BinaryExpr:
		a, okA := constValue(e.X)
		b, okB := constValue(e.Y)
		return a * b, okA && okB && e.Op == token.MUL
	case *ast.ParenExpr:
		return constValue(e.X)
	}
	return 0, false
}

// The benchmark must measure the configuration that ships: every
// edaserved and edarouter default the servers read is the value the
// benchmark builds its serve.Config and cluster.Config with.
func TestShippedDefaults(t *testing.T) {
	check := func(path string, want map[string]int64) {
		got := flagDefaults(t, path)
		for flag, w := range want {
			g, ok := got[flag]
			switch {
			case !ok:
				t.Errorf("%s declares no -%s flag", path, flag)
			case g != w:
				t.Errorf("%s: -%s defaults to %d, the benchmark uses %d", path, flag, g, w)
			}
		}
	}
	s := serveConfig
	check("../edaserved/main.go", map[string]int64{
		"max-batch":       int64(s.MaxBatch),
		"max-wait":        int64(s.MaxWait),
		"max-inflight":    int64(s.MaxInFlight),
		"cache-rows":      int64(s.CacheRows),
		"request-timeout": int64(s.RequestTimeout),
		"drain-timeout":   int64(s.DrainTimeout),
	})
	c := clusterConfig
	check("../edarouter/main.go", map[string]int64{
		"replication":     int64(c.Replication),
		"vnodes":          int64(c.VNodes),
		"max-inflight":    int64(c.MaxInFlight),
		"request-timeout": int64(c.RequestTimeout),
		"attempt-timeout": int64(c.AttemptTimeout),
		"spread-min":      int64(c.SpreadMin),
		"down-after":      int64(c.DownAfter),
		"chaos-seed":      c.Seed,
		"probe-interval":  int64(probeInterval),
	})
}
