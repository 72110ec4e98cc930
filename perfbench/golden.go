package main

import (
	"embed"
	"fmt"
	"strings"
)

// goldenSeeds are the seeds with committed output digests: the scenario
// default, and a held-out seed no one tuned against.
var goldenSeeds = [2]int64{1, 20170605}

// goldenFS holds golden/<workload>-seed<N>.txt: the canonical digest text
// of one repetition at that seed. Regenerate after an intended output
// change with `go test -run TestGolden -update`.
//
//go:embed golden
var goldenFS embed.FS

func goldenPath(workload string, seed int64) string {
	return fmt.Sprintf("golden/%s-seed%d.txt", workload, seed)
}

// golden returns the committed digest of workload at seed, or an error if
// none is committed.
func golden(workload string, seed int64) (string, error) {
	data, err := goldenFS.ReadFile(goldenPath(workload, seed))
	if err != nil {
		return "", fmt.Errorf("no golden digest for %s at seed %d: %w", workload, seed, err)
	}
	return string(data), nil
}

// diffLines lists the lines of got that differ from want, by position.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "  line %d\n    want %s\n    got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
