package broadband_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCommandInventoryDocumented holds the command list to the docs: the
// directories under cmd/ must equal both README.md's cmd/ tree and the
// `cmd/<name>` bullets of DESIGN.md §2, so adding or deleting a binary
// without its documentation fails the suite.
func TestCommandInventoryDocumented(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var tree []string
	treeEntry := regexp.MustCompile(`^  ([a-z0-9]+)/`)
	in := false
	for _, line := range strings.Split(string(readme), "\n") {
		switch {
		case line == "cmd/":
			in = true
		case in && !strings.HasPrefix(line, " "):
			in = false
		case in:
			if m := treeEntry.FindStringSubmatch(line); m != nil {
				tree = append(tree, m[1])
			}
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(design)
	start, end := strings.Index(sec, "\n## 2. "), strings.Index(sec, "\n## 3. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md: cannot find sections 2 and 3")
	}
	var bullets []string
	for _, m := range regexp.MustCompile("(?m)^- \\*\\*`cmd/([a-z0-9]+)`\\*\\*").FindAllStringSubmatch(sec[start:end], -1) {
		bullets = append(bullets, m[1])
	}

	slices.Sort(dirs)
	slices.Sort(tree)
	slices.Sort(bullets)
	if !slices.Equal(tree, dirs) {
		t.Errorf("README.md cmd/ tree lists %v, cmd/ holds %v", tree, dirs)
	}
	if !slices.Equal(bullets, dirs) {
		t.Errorf("DESIGN.md §2 lists %v, cmd/ holds %v", bullets, dirs)
	}
}
