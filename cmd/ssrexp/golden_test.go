package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"ssr/internal/experiments"
)

// goldenPath holds one "sha256  experiment.form" line per quick-scale
// output, text and -json, in experiments.Names() order.
const goldenPath = "testdata/quick.sha256"

// TestQuickTablesMatchGolden runs every experiment at quick scale, in text
// and in -json, and compares the SHA-256 of each stdout with the committed
// digest. The outputs ride the virtual clock, so any moved digest is a
// changed result. -short checks the text tables only. On a mismatch the
// test prints the full replacement file: commit it when the change is
// intended, so the new results show up as a reviewed diff.
func TestQuickTablesMatchGolden(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if _, name, ok := strings.Cut(line, "  "); ok {
			want[name] = line
		}
	}
	var replacement strings.Builder
	var moved []string
	for _, exp := range experiments.Names() {
		for _, form := range []string{"txt", "json"} {
			if form == "json" && testing.Short() {
				continue
			}
			args := []string{"-scale", "quick", exp}
			if form == "json" {
				args = append([]string{"-json"}, args...)
			}
			out, _, err := runCmd(args...)
			if err != nil {
				t.Fatalf("ssrexp %s: %v", strings.Join(args, " "), err)
			}
			name := exp + "." + form
			line := fmt.Sprintf("%x  %s", sha256.Sum256([]byte(out)), name)
			fmt.Fprintln(&replacement, line)
			if want[name] != line {
				moved = append(moved, name)
			}
			delete(want, name)
		}
	}
	if !testing.Short() {
		for name := range want {
			moved = append(moved, name+" (no longer produced)")
		}
	}
	if len(moved) > 0 {
		t.Errorf("quick-scale output differs from %s for: %s\nreplacement file:\n%s",
			goldenPath, strings.Join(moved, ", "), replacement.String())
	}
}
