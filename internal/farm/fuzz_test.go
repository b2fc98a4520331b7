package farm

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// formatAxis renders a parsed axis back into the -sweep grammar.
func formatAxis(a Axis) string {
	var vals []string
	switch a.Kind {
	case AxisController:
		vals = a.Names
	case AxisAllocKind:
		for _, v := range a.Values {
			vals = append(vals, AllocKind(int(v)).String())
		}
	default:
		for _, v := range a.Values {
			vals = append(vals, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return a.Kind.String() + "=" + strings.Join(vals, ",")
}

// formatSelector renders a parsed selector back into the -select
// grammar.
func formatSelector(s Selector) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch s.Kind {
	case SelectMinEnergySLO:
		return "slo=" + g(s.MaxP95)
	case SelectMinEnergySLOAFR:
		return "slo=" + g(s.MaxP95) + ",afr=" + g(s.MaxAFR)
	}
	return s.Kind.String()
}

// FuzzParseAxis: any input either fails to parse or yields an axis that
// validates and parses back, unchanged, from its own rendering.
func FuzzParseAxis(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAxis(s)
		if err != nil {
			return
		}
		if err := a.validate(); err != nil {
			t.Fatalf("ParseAxis(%q) = %+v, which does not validate: %v", s, a, err)
		}
		text := formatAxis(a)
		b, err := ParseAxis(text)
		if err != nil {
			t.Fatalf("ParseAxis(%q) rejects the rendering of ParseAxis(%q): %v", text, s, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("ParseAxis(%q) = %+v, but its rendering %q parses to %+v", s, a, text, b)
		}
	})
}

// FuzzParseSelector: any input either fails to parse or yields a
// selector that validates and parses back, unchanged, from its own
// rendering.
func FuzzParseSelector(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		sel, err := ParseSelector(s)
		if err != nil {
			return
		}
		if err := sel.validate(); err != nil {
			t.Fatalf("ParseSelector(%q) = %+v, which does not validate: %v", s, sel, err)
		}
		text := formatSelector(sel)
		back, err := ParseSelector(text)
		if err != nil {
			t.Fatalf("ParseSelector(%q) rejects the rendering of ParseSelector(%q): %v", text, s, err)
		}
		if back != sel {
			t.Fatalf("ParseSelector(%q) = %+v, but its rendering %q parses to %+v", s, sel, text, back)
		}
	})
}
