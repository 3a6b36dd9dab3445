// Package viz renders ChARLES output as terminal text: the partition
// treemap of demo step 10 (coverage-proportional rectangles, with the
// no-change partition hatched) and a detail card per summary. It is the
// CLI stand-in for the paper's interactive GUI.
package viz

import (
	"fmt"
	"strings"

	"charles/internal/model"
	"charles/internal/score"
)

// Treemap renders one rectangle per CT, width-proportional to coverage,
// plus a hatched rectangle for the residual no-change partition — the
// textual analogue of the demo's partition visualization. width is the
// total character width of the bars (≥ 20).
func Treemap(s *model.Summary, width int) string {
	if width < 20 {
		width = 20
	}
	var b strings.Builder
	var covered float64
	type bar struct {
		label    string
		detail   string
		coverage float64
		hatched  bool
	}
	var bars []bar
	for i, ct := range s.CTs {
		covered += ct.Coverage
		bars = append(bars, bar{
			label:    fmt.Sprintf("P%d %.1f%%", i+1, ct.Coverage*100),
			detail:   fmt.Sprintf("condition: %s | transformation: %s | rows: %d | MAE: %.4g", ct.Cond, ct.Tran, ct.Rows, ct.MAE),
			coverage: ct.Coverage,
			hatched:  ct.Tran.NoChange,
		})
	}
	if rem := 1 - covered; rem > 1e-9 {
		bars = append(bars, bar{
			label:    fmt.Sprintf("-- %.1f%%", rem*100),
			detail:   "no change observed",
			coverage: rem,
			hatched:  true,
		})
	}
	for _, bb := range bars {
		w := int(bb.coverage*float64(width) + 0.5)
		if w < 1 {
			w = 1
		}
		fill := "█"
		if bb.hatched {
			fill = "░"
		}
		fmt.Fprintf(&b, "%-14s |%s\n", bb.label, strings.Repeat(fill, w))
		fmt.Fprintf(&b, "%-14s   %s\n", "", bb.detail)
	}
	return b.String()
}

// SummaryCard renders a ranked summary as the demo's step-8 list entry:
// the CT list with scores for accuracy, interpretability, and the blend.
func SummaryCard(rank int, s *model.Summary, bd *score.Breakdown) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d  score %.1f%%  (accuracy %.1f%%, interpretability %.1f%%)\n",
		rank, bd.Score*100, bd.Accuracy*100, bd.Interpretability*100)
	if len(s.CTs) == 0 {
		b.WriteString("    (no change)\n")
		return b.String()
	}
	for _, ct := range s.CTs {
		fmt.Fprintf(&b, "    [%s]  →  [%s]   (%.1f%% of rows)\n", ct.Cond, ct.Tran, ct.Coverage*100)
	}
	return b.String()
}
