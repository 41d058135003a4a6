package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	names := func(sel []experiment) string {
		var out []string
		for _, e := range sel {
			out = append(out, e.name)
		}
		return strings.Join(out, ",")
	}
	all := names(experimentTable)
	for _, c := range []struct {
		spec, want string // want == "" means the spec must be rejected
	}{
		{"all", all},
		{"table1", "table1"},
		{"fig5, table1", "table1,fig5"}, // table order, whitespace trimmed
		{"table1,table1", "table1"},
		{"table1,all", all},
		{"tabel1", ""},
		{"table1,nope", ""},
		{"", ""},
		{"table1,", ""},
	} {
		sel, err := selectExperiments(c.spec)
		if c.want == "" {
			if err == nil {
				t.Errorf("-exp %q accepted (selected %q)", c.spec, names(sel))
			} else if !strings.Contains(err.Error(), "qualitative, table1") {
				t.Errorf("-exp %q: error does not list the valid names: %v", c.spec, err)
			}
			continue
		}
		if err != nil || names(sel) != c.want {
			t.Errorf("-exp %q selected %q, %v; want %q", c.spec, names(sel), err, c.want)
		}
	}
}
