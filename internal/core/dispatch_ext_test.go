package core_test

// Cross-dispatch determinism: the rendered evaluation artifacts — Tables 2
// and 3 (CSV) and the full Markdown report — must be byte-identical whether
// the suite runs on the per-event predecoded loop or the block-dispatch
// loop. This is the user-facing face of the equivalence guarantee: block
// batching is a host-side optimization and must never shift a reported
// number. External test package because suite imports core.

import (
	"strconv"
	"strings"
	"testing"

	"mmxdsp/internal/core"
	"mmxdsp/internal/suite"
)

func TestTablesByteIdenticalAcrossDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-suite runs are slow; skipped with -short")
	}
	render := func(dispatch string) (string, string, string) {
		opt := core.DefaultOptions()
		opt.SkipCheck = true
		opt.Dispatch = dispatch
		rs, err := core.RunAll(suite.All(), opt)
		if err != nil {
			t.Fatalf("RunAll (%s): %v", dispatch, err)
		}
		return core.Table2CSV(rs), core.Table3CSV(rs), core.MarkdownReport(rs)
	}
	t2p, t3p, mdp := render(core.DispatchPredecode)
	t2b, t3b, mdb := render(core.DispatchBlock)
	if t2p != t2b {
		t.Errorf("Table 2 CSV differs across dispatch modes:\n predecode:\n%s\n block:\n%s", t2p, t2b)
	}
	if t3p != t3b {
		t.Errorf("Table 3 CSV differs across dispatch modes:\n predecode:\n%s\n block:\n%s", t3p, t3b)
	}
	if mdp != mdb {
		t.Error("Markdown report differs across dispatch modes")
	}
}

// TestDispatchLegsRunTheirOwnLoop guards the differential legs: each
// dispatch name must reach its own inner loop, so a cross-mode comparison
// never silently runs one loop twice.
func TestDispatchLegsRunTheirOwnLoop(t *testing.T) {
	b, ok := suite.ByName("fir.mmx")
	if !ok {
		t.Fatal("fir.mmx missing from the suite")
	}
	for _, name := range append(core.DispatchModes(), core.DispatchAuto) {
		opt := core.DefaultOptions()
		opt.Dispatch = name
		res, err := core.Run(b, opt)
		if err != nil {
			t.Fatalf("dispatch %q: %v", name, err)
		}
		formed, fast := res.Traces.Formed, res.Blocks.FastEvents
		mode, _ := core.ParseDispatch(name)
		switch mode {
		case core.DispatchTrace:
			if formed == 0 {
				t.Errorf("dispatch %q formed no traces", name)
			}
		case core.DispatchBlock:
			if formed != 0 || fast == 0 {
				t.Errorf("dispatch %q: %d traces formed, %d fused block events; want 0 and > 0", name, formed, fast)
			}
		default:
			if formed != 0 || fast != 0 {
				t.Errorf("dispatch %q: %d traces formed, %d fused block events; want none", name, formed, fast)
			}
		}
	}
}

func TestParseDispatch(t *testing.T) {
	for name, want := range map[string]string{
		"": core.DispatchTrace, "auto": core.DispatchTrace, "trace": core.DispatchTrace,
		"block": core.DispatchBlock, "predecode": core.DispatchPredecode, "generic": core.DispatchGeneric,
	} {
		if got, err := core.ParseDispatch(name); err != nil || got != want {
			t.Errorf("ParseDispatch(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	for _, name := range core.DispatchModes() {
		if _, err := core.ParseDispatch(name); err != nil {
			t.Errorf("listed mode %q is rejected: %v", name, err)
		}
	}
	for _, bad := range []string{"warp", "Trace", " auto", "blocks"} {
		_, err := core.ParseDispatch(bad)
		if err == nil || !strings.HasPrefix(err.Error(), "unknown dispatch mode "+strconv.Quote(bad)) {
			t.Errorf("ParseDispatch(%q) error = %v, want an unknown-mode error", bad, err)
		}
	}
}
