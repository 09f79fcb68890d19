//! [`CachedLlm`] — a bounded completion cache keyed on prompt hash.
//!
//! The paper's hosted deployment re-cleans the same tables as users iterate;
//! every re-clean replays the same prompts at temperature 0, so answers are
//! safe to memoise. The cache stores successful responses only (failures
//! stay retryable), counts hits, misses and evictions, and partitions batch
//! requests so the inner model sees a single batch of just the misses.
//!
//! A long-lived process (the `cocoon-server` deployment) sees an unbounded
//! stream of distinct prompts, so the cache can be capped:
//! [`CachedLlm::with_capacity`] keeps at most N entries and evicts the least
//! recently *used* one on overflow — a hit refreshes an entry's recency, so
//! a steady working set survives one-off prompts churning past it.

use crate::chat::{ChatModel, ChatRequest, ChatResponse};
use crate::error::Result;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The LRU bookkeeping behind one mutex: entries carry the recency tick at
/// which they were last touched, and `order` maps ticks back to keys so the
/// least recently used entry is always `order`'s first element.
struct CacheInner {
    /// key → (response, recency tick of the last touch).
    entries: HashMap<u64, (ChatResponse, u64)>,
    /// recency tick → key, oldest first. Ticks are unique (one counter,
    /// bumped under the lock), so this is a faithful LRU order.
    order: BTreeMap<u64, u64>,
    /// The next recency tick to hand out.
    tick: u64,
}

impl CacheInner {
    /// Re-stamps `key` as most recently used.
    fn touch(&mut self, key: u64) {
        if let Some((_, tick)) = self.entries.get_mut(&key) {
            self.order.remove(tick);
            self.tick += 1;
            *tick = self.tick;
            self.order.insert(self.tick, key);
        }
    }
}

/// Memoises an inner model's completions, keyed on a 64-bit hash of the
/// full request (roles, contents, temperature), with an optional LRU bound.
///
/// Thread-safe: the map lives behind a `Mutex` and the counters are atomic,
/// so concurrent detection workers share one cache. Two workers racing on
/// the same cold prompt may both miss and complete; both store the same
/// deterministic answer, so output never depends on the race.
///
/// ```
/// use cocoon_llm::{CachedLlm, ChatModel, ChatRequest, ScriptedLlm};
///
/// // Bound the cache to 256 entries — the shape a long-lived server wants.
/// let llm = CachedLlm::with_capacity(ScriptedLlm::new(["the answer"]), 256);
/// let first = llm.complete(&ChatRequest::simple("prompt")).unwrap();
/// let second = llm.complete(&ChatRequest::simple("prompt")).unwrap();
/// assert_eq!(first, second, "the repeat replays from the cache");
/// assert_eq!((llm.hits(), llm.misses(), llm.evictions()), (1, 1, 0));
/// assert_eq!(llm.capacity(), Some(256));
/// ```
pub struct CachedLlm<M> {
    inner: M,
    responses: Mutex<CacheInner>,
    /// `None` = unbounded (the library default); `Some(n)` = keep at most
    /// `n` entries, evicting the least recently used.
    capacity: Option<usize>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl<M: ChatModel> CachedLlm<M> {
    /// An unbounded cache — fine for one-shot library runs, where the
    /// prompt set is bounded by the table being cleaned.
    pub fn new(inner: M) -> Self {
        Self::build(inner, None)
    }

    /// A cache holding at most `capacity` responses; on overflow the least
    /// recently used entry is evicted (and counted). A capacity of 0 caches
    /// nothing — every completion forwards to the inner model.
    pub fn with_capacity(inner: M, capacity: usize) -> Self {
        Self::build(inner, Some(capacity))
    }

    fn build(inner: M, capacity: Option<usize>) -> Self {
        CachedLlm {
            inner,
            responses: Mutex::new(CacheInner {
                entries: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// Completions served from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Completions forwarded to the inner model so far (including failures).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU bound so far (always 0 when unbounded).
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The configured bound, or `None` for an unbounded cache.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of cached responses; never exceeds [`capacity`](Self::capacity).
    pub fn len(&self) -> usize {
        self.responses.lock().expect("cache lock").entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached response (counters keep running).
    pub fn clear(&self) {
        let mut inner = self.responses.lock().expect("cache lock");
        inner.entries.clear();
        inner.order.clear();
    }

    /// The wrapped model (e.g. to read a transcript through the cache).
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Unwraps the cache, returning the inner model.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// Cache key: [`ChatRequest::fingerprint`] — the same identity the
    /// coalescing dispatcher single-flights on, so a cache hit and an
    /// in-flight merge always agree on what "the same request" means.
    fn key(request: &ChatRequest) -> u64 {
        request.fingerprint()
    }

    /// Returns the cached response for `key`, refreshing its recency when
    /// a bound makes recency matter — the unbounded cache skips the LRU
    /// bookkeeping entirely on its hot path.
    fn lookup(&self, key: u64) -> Option<ChatResponse> {
        let mut inner = self.responses.lock().expect("cache lock");
        let response = inner.entries.get(&key).map(|(r, _)| r.clone())?;
        if self.capacity.is_some() {
            inner.touch(key);
        }
        Some(response)
    }

    /// Inserts `key → response` as most recently used, evicting the least
    /// recently used entries while over capacity.
    fn store(&self, key: u64, response: &ChatResponse) {
        let Some(cap) = self.capacity else {
            return self.store_unbounded(key, response);
        };
        if cap == 0 {
            return;
        }
        let mut inner = self.responses.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((_, old_tick)) = inner.entries.insert(key, (response.clone(), tick)) {
            // A racer stored the same key first; supersede its order slot.
            inner.order.remove(&old_tick);
        }
        inner.order.insert(tick, key);
        while inner.entries.len() > cap {
            let (_, oldest) = inner.order.pop_first().expect("order tracks entries");
            inner.entries.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The unbounded insert: no eviction can ever fire, so the recency
    /// `order` map is left untouched (and stays empty).
    fn store_unbounded(&self, key: u64, response: &ChatResponse) {
        let mut inner = self.responses.lock().expect("cache lock");
        inner.entries.insert(key, (response.clone(), 0));
    }
}

impl<M: ChatModel> ChatModel for CachedLlm<M> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    /// A one-prompt [`complete_batch`](ChatModel::complete_batch).
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse> {
        self.complete_batch(std::slice::from_ref(request)).remove(0)
    }

    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
        // Serve hits up front, then hand the inner model one batch holding
        // only the misses, in request order.
        let keys: Vec<u64> = requests.iter().map(Self::key).collect();
        let mut out: Vec<Option<Result<ChatResponse>>> = keys
            .iter()
            .map(|&k| {
                self.lookup(k).map(|cached| {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Ok(cached)
                })
            })
            .collect();
        let miss_indices: Vec<usize> =
            out.iter().enumerate().filter(|(_, r)| r.is_none()).map(|(i, _)| i).collect();
        if !miss_indices.is_empty() {
            self.misses.fetch_add(miss_indices.len(), Ordering::Relaxed);
            let miss_requests: Vec<ChatRequest> =
                miss_indices.iter().map(|&i| requests[i].clone()).collect();
            let responses = self.inner.complete_batch(&miss_requests);
            for (&i, response) in miss_indices.iter().zip(responses) {
                if let Ok(response) = &response {
                    self.store(keys[i], response);
                }
                out[i] = Some(response);
            }
        }
        out.into_iter().map(|r| r.expect("every slot filled")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::{FailingLlm, ScriptedLlm};
    use crate::error::LlmError;

    #[test]
    fn repeat_prompts_hit_the_cache() {
        let llm = CachedLlm::new(ScriptedLlm::new(["only answer"]));
        let request = ChatRequest::simple("same prompt");
        let first = llm.complete(&request).unwrap();
        let second = llm.complete(&request).unwrap();
        assert_eq!(first, second);
        assert_eq!((llm.hits(), llm.misses()), (1, 1));
        // The script held one response; without the cache the second call
        // would have failed with Empty.
        assert_eq!(llm.inner().prompts_seen().len(), 1);
    }

    #[test]
    fn distinct_prompts_miss() {
        let llm = CachedLlm::new(ScriptedLlm::new(["a", "b"]));
        llm.complete(&ChatRequest::simple("p1")).unwrap();
        llm.complete(&ChatRequest::simple("p2")).unwrap();
        assert_eq!((llm.hits(), llm.misses()), (0, 2));
        assert_eq!(llm.len(), 2);
    }

    #[test]
    fn temperature_is_part_of_the_key() {
        let llm = CachedLlm::new(ScriptedLlm::new(["cold", "warm"]));
        let cold = ChatRequest::simple("p");
        let warm = ChatRequest { temperature: 0.7, ..cold.clone() };
        assert_eq!(llm.complete(&cold).unwrap().content, "cold");
        assert_eq!(llm.complete(&warm).unwrap().content, "warm");
        assert_eq!(llm.misses(), 2);
    }

    #[test]
    fn failures_are_not_cached() {
        let llm = CachedLlm::new(FailingLlm);
        let request = ChatRequest::simple("p");
        assert!(llm.complete(&request).is_err());
        assert!(llm.complete(&request).is_err());
        assert_eq!((llm.hits(), llm.misses()), (0, 2));
        assert!(llm.is_empty());
    }

    #[test]
    fn batch_partitions_hits_from_misses() {
        let llm = CachedLlm::new(ScriptedLlm::new(["a1", "a2", "a3"]));
        llm.complete(&ChatRequest::simple("p1")).unwrap();
        let requests = vec![
            ChatRequest::simple("p2"),
            ChatRequest::simple("p1"), // hit
            ChatRequest::simple("p3"),
            ChatRequest::simple("p4"), // script exhausted → Empty, not cached
        ];
        let responses = llm.complete_batch(&requests);
        assert_eq!(responses[0].as_ref().unwrap().content, "a2");
        assert_eq!(responses[1].as_ref().unwrap().content, "a1");
        assert_eq!(responses[2].as_ref().unwrap().content, "a3");
        assert_eq!(responses[3], Err(LlmError::Empty));
        // Only the misses reached the inner model, in order.
        assert_eq!(llm.inner().prompts_seen(), vec!["p1", "p2", "p3", "p4"]);
        assert_eq!((llm.hits(), llm.misses()), (1, 4));
    }

    #[test]
    fn clear_resets_contents_not_counters() {
        let llm = CachedLlm::new(ScriptedLlm::new(["a", "b"]));
        llm.complete(&ChatRequest::simple("p")).unwrap();
        llm.clear();
        assert!(llm.is_empty());
        llm.complete(&ChatRequest::simple("p")).unwrap();
        assert_eq!((llm.hits(), llm.misses()), (0, 2));
    }

    #[test]
    fn unbounded_cache_reports_no_capacity_and_never_evicts() {
        let llm = CachedLlm::new(ScriptedLlm::new((0..100).map(|i| format!("a{i}"))));
        for i in 0..100 {
            llm.complete(&ChatRequest::simple(format!("p{i}"))).unwrap();
        }
        assert_eq!(llm.capacity(), None);
        assert_eq!(llm.len(), 100);
        assert_eq!(llm.evictions(), 0);
    }

    #[test]
    fn capacity_bounds_the_entry_count() {
        let llm = CachedLlm::with_capacity(ScriptedLlm::new((0..10).map(|i| format!("a{i}"))), 3);
        for i in 0..10 {
            llm.complete(&ChatRequest::simple(format!("p{i}"))).unwrap();
            assert!(llm.len() <= 3, "after insert {i}: len {} > capacity 3", llm.len());
        }
        assert_eq!(llm.len(), 3);
        assert_eq!(llm.evictions(), 7, "10 inserts into 3 slots evict 7");
        assert_eq!(llm.capacity(), Some(3));
    }

    #[test]
    fn eviction_follows_least_recently_used_order() {
        let llm = CachedLlm::with_capacity(ScriptedLlm::new(["a", "b", "c", "d"]), 3);
        llm.complete(&ChatRequest::simple("p0")).unwrap();
        llm.complete(&ChatRequest::simple("p1")).unwrap();
        llm.complete(&ChatRequest::simple("p2")).unwrap();
        // Touch p0 so p1 becomes the least recently used…
        assert_eq!(llm.complete(&ChatRequest::simple("p0")).unwrap().content, "a");
        // …then overflow: p1 must be the entry that goes.
        llm.complete(&ChatRequest::simple("p3")).unwrap();
        assert_eq!(llm.evictions(), 1);
        let hits_before = llm.hits();
        // p0 and p2 still replay from the cache; p1 is gone (its retry
        // misses, and the exhausted script fails it — proof of eviction).
        assert_eq!(llm.complete(&ChatRequest::simple("p0")).unwrap().content, "a");
        assert_eq!(llm.complete(&ChatRequest::simple("p2")).unwrap().content, "c");
        assert_eq!(llm.complete(&ChatRequest::simple("p3")).unwrap().content, "d");
        assert_eq!(llm.hits(), hits_before + 3);
        assert_eq!(llm.complete(&ChatRequest::simple("p1")), Err(LlmError::Empty));
    }

    #[test]
    fn batch_hits_refresh_recency() {
        let llm = CachedLlm::with_capacity(ScriptedLlm::new(["a", "b", "c"]), 2);
        llm.complete(&ChatRequest::simple("p0")).unwrap();
        llm.complete(&ChatRequest::simple("p1")).unwrap();
        // A batch hit on p0 must refresh it, making p1 the LRU victim.
        let responses = llm.complete_batch(&[ChatRequest::simple("p0")]);
        assert_eq!(responses[0].as_ref().unwrap().content, "a");
        llm.complete(&ChatRequest::simple("p2")).unwrap();
        assert_eq!(llm.complete(&ChatRequest::simple("p0")).unwrap().content, "a");
        assert_eq!(llm.complete(&ChatRequest::simple("p1")), Err(LlmError::Empty));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let llm = CachedLlm::with_capacity(ScriptedLlm::new(["a", "b"]), 0);
        let request = ChatRequest::simple("p");
        assert_eq!(llm.complete(&request).unwrap().content, "a");
        assert_eq!(llm.complete(&request).unwrap().content, "b");
        assert_eq!((llm.hits(), llm.misses(), llm.len()), (0, 2, 0));
    }

    #[test]
    fn concurrent_hammer_never_exceeds_capacity() {
        let llm = CachedLlm::with_capacity(ScriptedLlm::new((0..64).map(|i| format!("a{i}"))), 4);
        std::thread::scope(|s| {
            for t in 0..8 {
                let llm = &llm;
                s.spawn(move || {
                    for i in 0..8 {
                        let _ = llm.complete(&ChatRequest::simple(format!("t{t}-p{i}")));
                        assert!(llm.len() <= 4, "len {} over capacity", llm.len());
                    }
                });
            }
        });
        assert!(llm.len() <= 4);
        assert!(llm.evictions() > 0);
    }
}
