package serve

// Stats is a snapshot of the result cache's counters (a store.Cache, so it
// converts from store.CacheStats). Hits are lookups served from the LRU,
// misses are lookups that had to compute (or join an in-flight
// computation), and executions counts the computations actually run — with
// singleflight deduplication, N identical concurrent requests cost one
// execution. An execution is whatever the cached value took: one engine run
// for a summarize or timeline-step entry, a whole walk for a walk's
// timeline answer (whose steps are entries, and executions, of their own).
// Live timeline answers are kept by their shard, not here.
type Stats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Executions int64 `json:"executions"`
	Evictions  int64 `json:"evictions"`
	Entries    int   `json:"entries"`
	Capacity   int   `json:"capacity"`
}
