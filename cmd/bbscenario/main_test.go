package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"nothing to run", nil, "nothing to run"},
		{"missing pack", []string{"no-such-pack.json"}, "no-such-pack.json"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr lacks %q:\n%s", c.want, stderr.String())
			}
		})
	}
}
