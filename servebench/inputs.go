package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// The benchmark's inputs are generated here from the seed alone; the
// program under test only ever sees the resulting CSV text. The generator
// lives in the benchmark rather than reusing the repository's own data
// generators, so a change to those cannot silently change the workload.

// chainKey is the primary key every generated snapshot declares.
var chainKey = []string{"id"}

// targetAttrs are the numeric attributes the policies evolve, in schema
// order.
var targetAttrs = []string{"salary", "bonus", "overtime", "longevity"}

var depts = []string{"ENG", "POL", "FIN"}

type employee struct {
	id                                 string
	dept                               string
	grade                              int
	salary, bonus, overtime, longevity float64
}

// chain is one generated version chain: the CSV text of every version,
// root first, and for a policy chain, for every step i ≥ 1, the targets
// whose values changed between version i-1 and version i.
type chain struct {
	csv     []string
	changed [][]string
}

func cents(v float64) float64 { return math.Round(v*100) / 100 }

// applyPolicy applies the k-th (1-based) application of target's policy
// to one employee. Odd and even applications undo each other's growth, so
// values stay in the same range however long the chain runs and the
// engine's work per step stays flat.
func applyPolicy(e *employee, target string, k int) {
	up := k%2 == 1
	switch target {
	case "salary":
		switch {
		case e.dept == "ENG" && up:
			e.salary = cents(1.03*e.salary + 500)
		case e.dept == "ENG":
			e.salary = cents(0.97*e.salary + 400)
		case e.dept == "POL" && up:
			e.salary = cents(e.salary + 1000)
		case e.dept == "POL":
			e.salary = cents(e.salary - 900)
		}
	case "bonus":
		switch {
		case e.grade >= 15 && up:
			e.bonus = cents(1.05 * e.bonus)
		case e.grade >= 15:
			e.bonus = cents(0.95*e.bonus + 50)
		case up:
			e.bonus = cents(e.bonus + 200)
		default:
			e.bonus = cents(e.bonus - 180)
		}
	case "overtime":
		switch {
		case e.dept == "FIN" && up:
			e.overtime = cents(1.10 * e.overtime)
		case e.dept == "FIN":
			e.overtime = cents(0.91 * e.overtime)
		case up:
			e.overtime = cents(e.overtime + 50)
		default:
			e.overtime = cents(e.overtime - 45)
		}
	case "longevity":
		if e.grade >= 20 {
			e.longevity = cents(e.longevity + 250)
		}
	}
}

// stepTargets lists the targets whose policies step s applies. Without
// rotation salary and bonus move every step, overtime every second step
// and longevity every third; with rotation step s moves only target
// s mod 4, one policy change per commit.
func stepTargets(s int, rotate bool) []string {
	if rotate {
		return []string{targetAttrs[s%len(targetAttrs)]}
	}
	out := []string{"salary", "bonus"}
	if s%2 == 0 {
		out = append(out, "overtime")
	}
	if s%3 == 0 {
		out = append(out, "longevity")
	}
	return out
}

func newEmployee(rng *rand.Rand, n int) employee {
	return employee{
		id:        fmt.Sprintf("e%05d", n),
		dept:      depts[rng.Intn(len(depts))],
		grade:     5 + rng.Intn(21),
		salary:    float64(40000+rng.Intn(1200)*100) + 0.5,
		bonus:     float64(1000+rng.Intn(90)*100) + 0.5,
		overtime:  float64(rng.Intn(40)*25) + 500.5,
		longevity: float64(rng.Intn(8)*250) + 0.5,
	}
}

// population returns rows employees for a policy chain. Every seed draws
// the same fixed population of records; the seed decides which entity gets
// which record and in which order the rows are stored. The engine's work
// and the size of its answers depend on the records (department and grade
// mix, value spreads), so they stay the same from seed to seed, while the
// inputs, and so every version id, differ.
func population(seed int64, rows int) []employee {
	fixed := rand.New(rand.NewSource(1))
	pop := make([]employee, rows)
	for i := range pop {
		pop[i] = newEmployee(fixed, i)
	}
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(10 * rows)[:rows]
	// Rows are stored in key order, as the store's canonical form keeps
	// them: the engine's answer depends on row order, and the post-run
	// recomputation must see the rows as the server does.
	sort.Ints(ids)
	out := make([]employee, rows)
	for i, p := range rng.Perm(rows) {
		out[i] = pop[p]
		out[i].id = fmt.Sprintf("e%06d", ids[i])
	}
	return out
}

// targets returns e's values of targetAttrs, in order.
func (e employee) targets() [4]float64 {
	return [4]float64{e.salary, e.bonus, e.overtime, e.longevity}
}

func encodeCSV(rows []employee) string {
	var b strings.Builder
	b.WriteString("id,dept,grade,salary,bonus,overtime,longevity\n")
	for _, e := range rows {
		b.WriteString(e.id)
		b.WriteByte(',')
		b.WriteString(e.dept)
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(e.grade))
		for _, v := range e.targets() {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(v, 'f', 2, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// changedTargets lists the targets whose value moved for some entity;
// prev and next hold the same entities in the same order.
func changedTargets(prev, next []employee) []string {
	var out []string
	for ai, attr := range targetAttrs {
		for i := range prev {
			if prev[i].targets()[ai] != next[i].targets()[ai] {
				out = append(out, attr)
				break
			}
		}
	}
	return out
}

// policyChain generates versions snapshots of rows employees evolving under
// the policies of stepTargets with a fixed entity set: the chain the engine
// summarizes. Version i is the result of step i, so a longer chain from
// the same seed extends a shorter one.
func policyChain(seed int64, rows, versions int, rotate bool) chain {
	cur := population(seed, rows)
	applied := map[string]int{}
	c := chain{csv: []string{encodeCSV(cur)}, changed: [][]string{nil}}
	for s := 1; s < versions; s++ {
		next := append([]employee(nil), cur...)
		for _, t := range stepTargets(s, rotate) {
			applied[t]++
			for i := range next {
				applyPolicy(&next[i], t, applied[t])
			}
		}
		c.csv = append(c.csv, encodeCSV(next))
		c.changed = append(c.changed, changedTargets(cur, next))
		cur = next
	}
	return c
}

// churnChain generates a chain for the read workload: every step applies
// the same policies and also removes and inserts churn entities, so diffs
// carry removed and inserted keys as well as cell changes.
func churnChain(seed int64, rows, versions, churn int) chain {
	rng := rand.New(rand.NewSource(seed))
	cur := make([]employee, rows)
	for i := range cur {
		cur[i] = newEmployee(rng, i)
	}
	nextID := rows
	applied := map[string]int{}
	c := chain{csv: []string{encodeCSV(cur)}}
	for s := 1; s < versions; s++ {
		next := make([]employee, 0, len(cur))
		drop := map[int]bool{}
		for len(drop) < churn {
			drop[rng.Intn(len(cur))] = true
		}
		targets := stepTargets(s, false)
		for _, t := range targets {
			applied[t]++
		}
		for i, e := range cur {
			if !drop[i] {
				for _, t := range targets {
					applyPolicy(&e, t, applied[t])
				}
				next = append(next, e)
			}
		}
		for k := 0; k < churn; k++ {
			next = append(next, newEmployee(rng, nextID))
			nextID++
		}
		c.csv = append(c.csv, encodeCSV(next))
		cur = next
	}
	return c
}

// distinctAlphas returns n distinct accuracy–interpretability weights in
// [0.1, 0.9], none equal to the engine default 0.5, in seeded order.
func distinctAlphas(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for j := range out {
		a := 0.1 + 0.8*(float64(j)+0.05+0.9*rng.Float64())/float64(n)
		if a == 0.5 {
			a = math.Nextafter(a, 1)
		}
		out[j] = a
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// exploreOp is one α-slider request: summarize step (from = step-1, to =
// step) for target with a weight no earlier request used.
type exploreOp struct {
	step   int
	target string
	alpha  float64
}

// exploreOps deals at least n ops from every (step, changed target)
// combination in seeded rounds: each round is a permutation of all
// combinations, so every seed sends the same mix of op classes.
func exploreOps(rng *rand.Rand, c chain, n int) []exploreOp {
	type combo struct {
		step   int
		target string
	}
	var combos []combo
	for s := 1; s < len(c.csv); s++ {
		for _, t := range c.changed[s] {
			combos = append(combos, combo{s, t})
		}
	}
	// Whole rounds only: every seed then sends each combination equally
	// often.
	n = (n + len(combos) - 1) / len(combos) * len(combos)
	alphas := distinctAlphas(rng, n)
	ops := make([]exploreOp, 0, n)
	for len(ops) < n {
		perm := rng.Perm(len(combos))
		for _, p := range perm {
			if len(ops) == n {
				break
			}
			ops = append(ops, exploreOp{step: combos[p].step, target: combos[p].target, alpha: alphas[len(ops)]})
		}
	}
	return ops
}

// Read op classes. Every block of readBlock ops holds the same number of
// each class and the same cold ops, in seeded order, so every seed sends
// the same class mix and the same cold share.
const (
	opCSV         = "csv"
	opDiffAdj     = "diff_adjacent"
	opDiffNear    = "diff_near"
	opChanges     = "changes"
	opVersionMeta = "version"
)

// readBlock is one block's class deal: 3 CSV checkouts, 2 adjacent
// diffs, 1 near diff, 2 change sets and 2 metadata reads.
var readBlock = []string{opCSV, opCSV, opCSV, opDiffAdj, opDiffAdj, opDiffNear, opChanges, opChanges, opVersionMeta, opVersionMeta}

// readColdBlock picks the block's cold ops, which go to old versions the
// caches cannot hold: one adjacent diff, the near diff, and a CSV checkout
// in even blocks or a change set in odd ones. The cold share is then 30%,
// well away from 10% and 50%, so p50 reads the warm path; and the cold
// diffs, the slowest ops, are 20% of the ops, so p90 falls inside them
// rather than on the edge between two kinds of miss.
func readColdBlock(block int) map[string]int {
	cold := map[string]int{opDiffAdj: 1, opDiffNear: 1, opCSV: 1}
	if block%2 == 1 {
		cold = map[string]int{opDiffAdj: 1, opDiffNear: 1, opChanges: 1}
	}
	return cold
}

// readHotWindow is how many of the most recent versions hot ops touch: few
// enough that their blobs, change sets and diff answers stay resident in
// the store's 32-entry LRUs between uses.
const readHotWindow = 6

// readSlotSpacing spaces the versions cold ops target: a cold op on slot v
// touches versions v-2..v, so slots this far apart never share cache
// entries and a cold op cannot hit an entry another cold op left behind.
const readSlotSpacing = 4

// readOp is one read request: class on version v (diffs run from v-gap to
// v), cold when it targets a version outside the hot window.
type readOp struct {
	class string
	v     int
	gap   int
	cold  bool
}

// readOps builds n read ops over a chain of versions versions. Hot ops deal
// the hot window's versions round-robin per class, so every hot entry is
// reused long before the LRUs could evict it; cold ops walk a seeded
// permutation of the cold slots, so a slot comes back only after every
// other slot has been visited and its entries have been evicted.
func readOps(rng *rand.Rand, versions, n int) []readOp {
	hotLo := versions - readHotWindow
	var slots []int
	for v := readSlotSpacing - 1; v < hotLo-readHotWindow; v += readSlotSpacing {
		slots = append(slots, v)
	}
	var cold []int
	hot := map[string][]int{}
	ops := make([]readOp, 0, n)
	for block := 0; len(ops) < n; block++ {
		classes := append([]string(nil), readBlock...)
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		coldLeft := readColdBlock(block)
		for _, cl := range classes {
			if len(ops) == n {
				break
			}
			op := readOp{class: cl, cold: coldLeft[cl] > 0}
			coldLeft[cl]--
			switch cl {
			case opDiffAdj:
				op.gap = 1
			case opDiffNear:
				op.gap = 2
			}
			if op.cold {
				if len(cold) == 0 {
					for _, p := range rng.Perm(len(slots)) {
						cold = append(cold, slots[p])
					}
				}
				op.v, cold = cold[0], cold[1:]
			} else {
				if len(hot[cl]) == 0 {
					for _, p := range rng.Perm(readHotWindow) {
						hot[cl] = append(hot[cl], hotLo+p)
					}
				}
				op.v, hot[cl] = hot[cl][0], hot[cl][1:]
			}
			ops = append(ops, op)
		}
	}
	return ops
}
