package predict

import "greengpu/internal/units"

// Anchor is one anchor position on the ladder grid.
type Anchor struct {
	Core, Mem int
}

// Anchors returns the search's anchor set for an nc×nm ladder: the four
// ladder corners plus the center, the cheapest spread that spans both
// frequency domains. The order is deterministic and duplicates are removed
// (degenerate one-level ladders collapse corners onto each other).
func Anchors(coreFreqs, memFreqs []units.Frequency) []Anchor {
	nc, nm := len(coreFreqs), len(memFreqs)
	raw := []Anchor{
		{0, 0},
		{0, nm - 1},
		{nc - 1, 0},
		{nc - 1, nm - 1},
		{nc / 2, nm / 2},
	}
	seen := map[Anchor]bool{}
	out := raw[:0]
	for _, a := range raw {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
