package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunMeasuresLine(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want []string
	}{
		{"loaded", []string{"-down", "4Mbps", "-up", "512kbps", "-rtt", "60ms", "-duration", "4", "-loaded"},
			[]string{"download:", "upload:", "mathis bound:", "loaded rtt:"}},
		{"bursty", []string{"-down", "8Mbps", "-up", "768kbps", "-rtt", "600ms", "-loss", "2", "-burst", "-duration", "2"},
			[]string{"burst=true", "total loss:"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
			}
			for _, want := range c.want {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, stdout.String())
				}
			}
		})
	}
}

func TestRunExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-down", "fast"}, &stdout, &stderr); code != 1 {
		t.Errorf("bad -down: exit %d, want 1", code)
	}
	if code := run([]string{"-up", "-3 Mbps"}, &stdout, &stderr); code != 1 {
		t.Errorf("bad -up: exit %d, want 1", code)
	}
	if code := run([]string{"-duration"}, &stdout, &stderr); code != 2 {
		t.Errorf("missing flag value: exit %d, want 2", code)
	}
}
