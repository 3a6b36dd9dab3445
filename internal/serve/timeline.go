package serve

import (
	"context"
	"errors"
	"io"
	"net/http"

	"charles/internal/core"
	"charles/internal/history"
	"charles/internal/store"
	"charles/internal/table"
)

// timelineRequest is the POST /timeline body. Head defaults to the most
// recently committed version; with no Target every changed numeric attribute
// of every step is summarized. Tuning fields mirror POST /summarize.
type timelineRequest struct {
	Head   string   `json:"head,omitempty"`
	Target string   `json:"target,omitempty"`
	Alpha  *float64 `json:"alpha,omitempty"`
	C      *int     `json:"c,omitempty"`
	T      *int     `json:"t,omitempty"`
	TopK   *int     `json:"topk,omitempty"`
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

// timelineTargetJSON is one attribute's summarized evolution.
type timelineTargetJSON struct {
	Target string             `json:"target"`
	Steps  []timelineStepJSON `json:"steps"`
	Drifts []driftJSON        `json:"drifts,omitempty"`
}

// timelineResponse is the POST /timeline body. Live reports the answer was
// assembled from the commit-maintained timeline (head-relative all-default
// requests; see live.go) rather than a request-time chain walk; Cached
// reports the answer was served whole from the memo for the same question.
type timelineResponse struct {
	Head     string               `json:"head"`
	Versions []string             `json:"versions"` // root → head
	Steps    int                  `json:"steps"`
	Live     bool                 `json:"live,omitempty"`
	Cached   bool                 `json:"cached,omitempty"`
	Targets  []timelineTargetJSON `json:"targets"`
	Skipped  map[string]string    `json:"skipped,omitempty"`
}

// handleTimeline answers POST /timeline for the lineage ending at head. The
// head-relative all-defaults question — "what does the timeline at the
// current head look like?" — is read from the shard's maintained timeline;
// every other question runs history.Walk over the materialized lineage, with
// each (step, target) engine run memoized in the result LRU under the key
// POST /summarize uses, so walks and pair questions warm each other. Either
// way the whole answer is memoized too — per head for live answers, per
// (head, options fingerprint) for walks, the fingerprint covering the
// target — so a warm repeat is one cache lookup.
func (s *Server) handleTimeline(sh *shardRef, w http.ResponseWriter, r *http.Request) {
	var req timelineRequest
	// Every field is optional, so an absent body is the all-defaults
	// request, not an error.
	if err := decodeJSON(r, &req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, err)
		return
	}
	live := req.Head == "" && req.Target == "" &&
		req.Alpha == nil && req.C == nil && req.T == nil && req.TopK == nil
	head := req.Head
	if head == "" {
		hv, err := sh.st.Head()
		if err != nil {
			writeError(w, err)
			return
		}
		head = hv.ID
	}
	opts := core.DefaultOptions(req.Target)
	if req.Alpha != nil {
		opts.Alpha = *req.Alpha
	}
	if req.C != nil {
		opts.C = *req.C
	}
	if req.T != nil {
		opts.T = *req.T
	}
	if req.TopK != nil {
		opts.TopK = *req.TopK
	}
	// Live answers differ from walk answers in their Live flag, so the two
	// are memoized apart even for the same head and options.
	key := sh.cacheKeyPrefix() + "timeline|" + head
	var ls *liveShard
	if live {
		ls = s.liveShardFor(sh)
	} else {
		key += "|" + opts.Fingerprint()
	}
	ctx := r.Context()
	val, hit, err := s.cache.Do(key, func() (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var mt *history.MultiTimeline
		var ids []string
		var err error
		if live {
			if mt, ids, err = s.liveTimelineAt(ctx, sh, ls, head); err == nil {
				// Seed the pair LRU with the steps the commit pump appended
				// outside any request.
				s.seedStepCache(sh, ids, mt)
			}
		} else {
			var mats []*table.Table
			if ids, mats, err = materializeLineage(ctx, sh.st, head); err == nil {
				mt, err = history.Walk(ctx, mats, req.Target, opts, s.stepMemo(ctx, sh, ids))
			}
		}
		if err != nil {
			return nil, err
		}
		return encodeTimeline(head, ids, live, mt), nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	resp := val.(timelineResponse)
	resp.Cached = hit
	writeJSON(w, http.StatusOK, resp)
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

// seedStepCache inserts a timeline's per-step rankings into the result LRU
// under their stepKeys. Do is a hit for already-present keys, so repeated
// seeding is cheap and never recomputes.
func (s *Server) seedStepCache(sh *shardRef, ids []string, mt *history.MultiTimeline) {
	for _, attr := range mt.Attrs {
		fp := core.DefaultOptions(attr).Fingerprint()
		for _, hs := range mt.Timelines[attr].Steps {
			if len(hs.Ranked) == 0 {
				continue
			}
			ranked := hs.Ranked
			_, _, _ = s.cache.Do(sh.stepKey(ids[hs.From], ids[hs.To], fp), func() (any, error) { return ranked, nil })
		}
	}
}

// encodeTimeline renders a MultiTimeline over the version ids as the wire
// timelineResponse, with each target's drift analysis from the library.
func encodeTimeline(head string, ids []string, live bool, mt *history.MultiTimeline) timelineResponse {
	resp := timelineResponse{
		Head: head, Versions: ids, Steps: mt.Steps,
		Skipped: mt.Skipped, Live: live,
	}
	for _, attr := range mt.Attrs {
		tl := mt.Timelines[attr]
		tj := timelineTargetJSON{Target: attr}
		for _, hs := range tl.Steps {
			sj := timelineStepJSON{From: ids[hs.From], To: ids[hs.To], NoChange: hs.NoChange}
			if len(hs.Ranked) > 0 {
				sj.Ranked = EncodeRanked(hs.Ranked)
			}
			tj.Steps = append(tj.Steps, sj)
		}
		for _, d := range tl.Drifts() {
			tj.Drifts = append(tj.Drifts, driftJSON{
				StepA: d.StepA, StepB: d.StepB,
				SamePartitioning: d.SamePartitioning,
				Note:             d.Note,
			})
		}
		resp.Targets = append(resp.Targets, tj)
	}
	return resp
}
