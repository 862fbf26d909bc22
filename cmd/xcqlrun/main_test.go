package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name                       string
		structure, storeDir        string
		incremental, trace, tracez bool
		wantErr                    string // "" = accepted
	}{
		{name: "one-shot", structure: "s.xml"},
		{name: "one-shot trace", structure: "s.xml", trace: true},
		{name: "incremental tracez", structure: "s.xml", incremental: true, tracez: true},
		{name: "store-dir without structure", storeDir: "d", wantErr: "-store-dir"},
		{name: "incremental without structure", incremental: true, wantErr: "-incremental needs -structure"},
		{name: "tracez without incremental", structure: "s.xml", tracez: true, wantErr: "-tracez needs -incremental"},
		// an incremental replay never prints the one-shot timeline, so
		// -trace would only fill the span ring
		{name: "trace with incremental", structure: "s.xml", incremental: true, trace: true, wantErr: "-tracez"},
	}
	for _, c := range cases {
		err := checkFlags(c.structure, c.storeDir, c.incremental, c.trace, c.tracez)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}
