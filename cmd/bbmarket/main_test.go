package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunViews(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"summary", nil, "upgrade"},
		{"country", []string{"-country", "JP"}, "access price:"},
		{"regions", []string{"-regions"}, ">$10"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stdout.String(), c.want) {
				t.Errorf("output lacks %q:\n%s", c.want, stdout.String())
			}
		})
	}
}

func TestRunExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-country", "ZZ"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown country: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), `unknown country "ZZ"`) {
		t.Errorf("stderr = %q", stderr.String())
	}
	if code := run([]string{"-seed", "x"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag value: exit %d, want 2", code)
	}
}
