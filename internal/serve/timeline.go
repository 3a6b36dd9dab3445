package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"charles/internal/core"
	"charles/internal/history"
	"charles/internal/store"
	"charles/internal/table"
)

// timelineRequest is the POST /timeline body. Head defaults to the most
// recently committed version; with no Target every changed numeric attribute
// of every step is summarized. The tuning is POST /summarize's.
type timelineRequest struct {
	Head   string `json:"head,omitempty"`
	Target string `json:"target,omitempty"`
	tuning
}

// timelineStepJSON is one consecutive version pair of one target's timeline.
type timelineStepJSON struct {
	From     string       `json:"from"`
	To       string       `json:"to"`
	NoChange bool         `json:"noChange,omitempty"`
	Ranked   []RankedJSON `json:"ranked,omitempty"`
}

// driftJSON mirrors history.Drift.
type driftJSON struct {
	StepA            int    `json:"stepA"`
	StepB            int    `json:"stepB"`
	SamePartitioning bool   `json:"samePartitioning"`
	Note             string `json:"note"`
}

// handleTimeline answers POST /timeline for the lineage ending at head. The
// head-relative all-defaults question — "what does the timeline at the
// current head look like?" — is the live shard's to answer (see
// liveShard.headAnswer). Every other question runs history.Walk over the
// materialized lineage, with each (step, target) engine run memoized in the
// result LRU under the key POST /summarize uses, so walks, pair questions
// and the commit pump warm each other. The walk's answer, encoded by
// encodeTimelineAnswer like a live one, is memoized per (head, options
// fingerprint), the fingerprint covering the target, so a warm repeat is
// one cache lookup and a write of the stored bytes.
func (s *Server) handleTimeline(sh *shardRef, w http.ResponseWriter, r *http.Request) {
	var req timelineRequest
	// Every field is optional, so an absent body is the all-defaults
	// request, not an error.
	if err := decodeJSON(r, &req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, err)
		return
	}
	ctx := r.Context()
	if req == (timelineRequest{}) {
		ans, cached, err := s.liveShardFor(sh).headAnswer(ctx, s, sh)
		if err != nil {
			writeError(w, err)
			return
		}
		ans.write(w, cached)
		return
	}
	head := req.Head
	if head == "" {
		hv, err := sh.st.Head()
		if err != nil {
			writeError(w, err)
			return
		}
		head = hv.ID
	}
	opts := req.options(req.Target)
	val, hit, err := s.cache.Do(sh.cacheKeyPrefix()+"timeline|"+head+"|"+opts.Fingerprint(), func() (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ids, mats, err := materializeLineage(ctx, sh.st, head)
		if err != nil {
			return nil, err
		}
		mt, err := history.Walk(ctx, mats, req.Target, opts, s.stepMemo(ctx, sh, ids))
		if err != nil {
			return nil, err
		}
		ans, _, err := encodeTimelineAnswer(head, ids, false, mt, nil)
		return ans, err
	})
	if err != nil {
		writeError(w, err)
		return
	}
	val.(*timelineAnswer).write(w, hit)
}

// lineageIDs returns the version ids of head's lineage, root → head. A
// lineage of one version has no steps and is an error.
func lineageIDs(st *store.Store, head string) ([]string, error) {
	chain, err := st.Chain(head)
	if err != nil {
		return nil, err
	}
	if len(chain) < 2 {
		return nil, errTimelineTooShort
	}
	ids := make([]string, len(chain))
	for i, v := range chain {
		ids[i] = v.ID
	}
	return ids, nil
}

// materializeLineage resolves head's lineage and checks it out root → head
// (see history.MaterializeChainContext).
func materializeLineage(ctx context.Context, st *store.Store, head string) ([]string, []*table.Table, error) {
	ids, err := lineageIDs(st, head)
	if err != nil {
		return nil, nil, err
	}
	mats, err := history.MaterializeChainContext(ctx, st, ids)
	if err != nil {
		return nil, nil, err
	}
	return ids, mats, nil
}

// stepMemo backs a walk over ids with the result LRU: each (step, target)
// engine run is looked up, or computed once, under its stepKey. The compute
// runs stepHook and honours ctx before any engine work, so an abandoned walk
// stops starting engine runs.
func (s *Server) stepMemo(ctx context.Context, sh *shardRef, ids []string) history.Memo {
	return func(i int, opts core.Options, run func() ([]core.Ranked, error)) ([]core.Ranked, error) {
		val, _, err := s.cache.Do(sh.stepKey(ids[i], ids[i+1], opts.Fingerprint()), func() (any, error) {
			if s.stepHook != nil {
				s.stepHook()
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return run()
		})
		if err != nil {
			return nil, err
		}
		return val.([]core.Ranked), nil
	}
}

// timelineEnvelope is the part of a timeline answer marshalled per answer:
// the fields before "cached". Live reports the answer was assembled from
// the commit-maintained timeline (head-relative all-default requests; see
// live.go) rather than a request-time chain walk.
type timelineEnvelope struct {
	Head     string   `json:"head"`
	Versions []string `json:"versions"` // root → head
	Steps    int      `json:"steps"`
	Live     bool     `json:"live,omitempty"`
}

// timelineAnswer is an encoded POST /timeline answer, kept as the byte
// parts it is written in, in order. Its step and drift entries are shared
// with the other answers along the lineage, so it is never flattened into
// one copy. On the wire it reads
//
//	{"head", "versions", "steps", "live"?, "cached"?,
//	 "targets": [{"target", "steps": [step…], "drifts"?: [drift…]}…] or null,
//	 "skipped"?: {attribute: reason}}
//
// indented two spaces a level and ending in a newline, as writeJSON
// writes. "cached" reports the answer was served whole as kept for the same
// question (by the result cache for a walk, by the live shard for a live
// answer), so write splices it in.
type timelineAnswer struct {
	envelope []byte   // "{" through the last envelope field and its ",\n"
	parts    [][]byte // "targets" through the closing "}\n"
}

// write sends the answer with a 200. A failed write means the client is
// gone, so it ends the answer and there is no one left to tell.
func (a *timelineAnswer) write(w http.ResponseWriter, cached bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(a.envelope)
	if err == nil && cached {
		_, err = w.Write(cachedField)
	}
	for i := 0; err == nil && i < len(a.parts); i++ {
		_, err = w.Write(a.parts[i])
	}
}

// entryIndent prefixes every line of a step or drift entry after its first:
// the entries sit four levels deep (answer, targets, target, list), so an
// entry marshalled with it is byte for byte what an indenting encoder of
// the whole answer writes there.
const entryIndent = "        "

// The answer's fixed separators, at the depths they sit.
var (
	cachedField  = []byte("  \"cached\": true,\n")
	targetsNull  = []byte("  \"targets\": null")
	targetsOpen  = []byte("  \"targets\": [\n")
	nextTarget   = []byte(",\n")
	nextEntry    = []byte(",\n" + entryIndent)
	driftsOpen   = []byte(",\n      \"drifts\": [\n" + entryIndent)
	entriesClose = []byte("\n      ]")
	targetClose  = []byte("\n    }")
	targetsClose = []byte("\n  ]")
	skippedField = []byte(",\n  \"skipped\": ")
	answerClose  = []byte("\n}\n")
)

// entryKey names one step or drift entry of a live answer by what
// determines its bytes: a step by its target and version pair, a drift by
// its target and the three versions its two steps span (a version's place
// in its lineage is fixed, so a drift's step numbers are too). A step
// leaves ids[2] empty.
type entryKey struct {
	target string
	ids    [3]string
}

// encodeTimelineAnswer is the one timeline encoder: it encodes mt over the
// version ids (root → head) as the answer for head. Each step and drift
// entry found in prev — the entries of an earlier answer, nil for none — is
// reused as it is, and only the others are encoded. It also returns the
// entries this answer holds, for the next answer along the lineage.
func encodeTimelineAnswer(head string, ids []string, live bool, mt *history.MultiTimeline, prev map[entryKey][]byte) (*timelineAnswer, map[entryKey][]byte, error) {
	env, err := json.MarshalIndent(timelineEnvelope{Head: head, Versions: ids, Steps: mt.Steps, Live: live}, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	ans := &timelineAnswer{
		envelope: append(env[:len(env)-len("\n}")], ",\n"...),
		parts:    make([][]byte, 0, 5+len(mt.Attrs)*(4*mt.Steps+2)),
	}
	used := make(map[entryKey][]byte, 2*len(mt.Attrs)*mt.Steps)
	entry := func(k entryKey, v func() any) error {
		b, ok := prev[k]
		if !ok {
			var err error
			if b, err = json.MarshalIndent(v(), entryIndent, "  "); err != nil {
				return fmt.Errorf("encode timeline: %w", err)
			}
		}
		used[k] = b
		ans.parts = append(ans.parts, b)
		return nil
	}
	if len(mt.Attrs) == 0 {
		ans.parts = append(ans.parts, targetsNull)
	} else {
		ans.parts = append(ans.parts, targetsOpen)
	}
	for i, attr := range mt.Attrs {
		name, err := json.Marshal(attr)
		if err != nil {
			return nil, nil, err
		}
		if i > 0 {
			ans.parts = append(ans.parts, nextTarget)
		}
		ans.parts = append(ans.parts, []byte("    {\n      \"target\": "+string(name)+",\n      \"steps\": [\n"+entryIndent))
		tl := mt.Timelines[attr]
		for j, hs := range tl.Steps {
			if j > 0 {
				ans.parts = append(ans.parts, nextEntry)
			}
			err := entry(entryKey{attr, [3]string{ids[hs.From], ids[hs.To]}}, func() any {
				sj := timelineStepJSON{From: ids[hs.From], To: ids[hs.To], NoChange: hs.NoChange}
				if len(hs.Ranked) > 0 {
					sj.Ranked = EncodeRanked(hs.Ranked)
				}
				return sj
			})
			if err != nil {
				return nil, nil, err
			}
		}
		ans.parts = append(ans.parts, entriesClose)
		for j := 0; j+1 < len(tl.Steps); j++ {
			if j == 0 {
				ans.parts = append(ans.parts, driftsOpen)
			} else {
				ans.parts = append(ans.parts, nextEntry)
			}
			a, b := tl.Steps[j], tl.Steps[j+1]
			err := entry(entryKey{attr, [3]string{ids[a.From], ids[a.To], ids[b.To]}}, func() any {
				d := tl.DriftAt(j)
				return driftJSON{StepA: d.StepA, StepB: d.StepB, SamePartitioning: d.SamePartitioning, Note: d.Note}
			})
			if err != nil {
				return nil, nil, err
			}
		}
		if len(tl.Steps) > 1 {
			ans.parts = append(ans.parts, entriesClose)
		}
		ans.parts = append(ans.parts, targetClose)
	}
	if len(mt.Attrs) > 0 {
		ans.parts = append(ans.parts, targetsClose)
	}
	if len(mt.Skipped) > 0 {
		skipped, err := json.MarshalIndent(mt.Skipped, "  ", "  ")
		if err != nil {
			return nil, nil, err
		}
		ans.parts = append(ans.parts, skippedField, skipped)
	}
	ans.parts = append(ans.parts, answerClose)
	return ans, used, nil
}
