//! LRU score cache keyed by the quantized feature vector.
//!
//! The cache sits in front of the micro-batch queue: a hit answers
//! without touching the network at all. Keys are the **quantized**
//! transformed features (fixed-point at [`QUANT`] resolution) rather
//! than raw `f64` bits, so two requests whose features differ only by
//! sub-resolution noise share an entry; storing the full quantized
//! vector (not just its hash) makes collisions impossible — a hit is a
//! hit by value equality.
//!
//! The implementation is a classic vec-backed doubly-linked list +
//! `HashMap` index: O(1) get/insert/evict, no external dependencies.
//! The server keys it by `Arc<[i64]>` (`quantize_shared`), so the
//! index and the list node share one copy of each key.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Fixed-point quantization resolution for cache keys: features (which
/// live in `[0, 1]`) are rounded to multiples of `1 / QUANT`.
pub const QUANT: f64 = 1e9;

/// Quantizes a transformed feature vector into a cache key.
///
/// Non-finite entries map to sentinel values so a (guarded-against
/// upstream, but defensively handled) NaN can never poison key equality.
pub fn quantize(features: &[f64]) -> Vec<i64> {
    features.iter().map(|&v| quantize_one(v)).collect()
}

/// [`quantize`] into a key the cache, the scorer and the sentinel share
/// by reference count, built in one allocation.
pub(crate) fn quantize_shared(features: &[f64]) -> Arc<[i64]> {
    features.iter().map(|&v| quantize_one(v)).collect()
}

fn quantize_one(v: f64) -> i64 {
    if v.is_finite() {
        (v * QUANT).round() as i64
    } else if v.is_nan() {
        i64::MIN
    } else if v > 0.0 {
        i64::MAX
    } else {
        i64::MIN + 1
    }
}

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// A fixed-capacity least-recently-used map.
///
/// `get` refreshes recency; `insert` evicts the least-recently-used
/// entry once the capacity is reached. A capacity of zero disables the
/// cache entirely (every `get` misses, every `insert` is dropped).
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    /// Most-recently-used node index, or `NIL` when empty.
    head: usize,
    /// Least-recently-used node index, or `NIL` when empty.
    tail: usize,
    /// Reusable slots from evictions (kept at most one deep: evict and
    /// insert are paired, so the free list never grows).
    free: Vec<usize>,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks `key` up, marking it most-recently-used on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let &idx = self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(self.nodes[idx].value.clone())
    }

    /// Inserts (or refreshes) `key -> value`, evicting the
    /// least-recently-used entry if the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.detach(idx);
            self.attach_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.detach(lru);
            self.map.remove(&self.nodes[lru].key);
            self.free.push(lru);
        }
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut c: LruCache<Vec<i64>, f64> = LruCache::new(2);
        assert!(c.get(&vec![1]).is_none());
        c.insert(vec![1], 0.25);
        assert_eq!(c.get(&vec![1]), Some(0.25));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<i64, i64> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // refresh 1; LRU is now 2
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insert_refreshes_existing_keys() {
        let mut c: LruCache<i64, i64> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh, not a new entry; LRU stays 2
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut c: LruCache<i64, i64> = LruCache::new(0);
        c.insert(1, 10);
        assert!(c.get(&1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn stress_against_a_naive_model() {
        // Model: Vec<(K, V)> ordered most-recent-first.
        let mut c: LruCache<u64, u64> = LruCache::new(8);
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut state = 0x12345u64;
        for _ in 0..4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 20;
            if state.is_multiple_of(3) {
                let got = c.get(&key);
                let want = model.iter().position(|&(k, _)| k == key).map(|i| {
                    let (k, v) = model.remove(i);
                    model.insert(0, (k, v));
                    v
                });
                assert_eq!(got, want);
            } else {
                let value = state % 1000;
                c.insert(key, value);
                if let Some(i) = model.iter().position(|&(k, _)| k == key) {
                    model.remove(i);
                }
                model.insert(0, (key, value));
                model.truncate(8);
            }
            assert_eq!(c.len(), model.len());
        }
    }

    #[test]
    fn quantization_is_stable_and_total() {
        let a = quantize(&[0.5, 0.25, 1.0]);
        let b = quantize(&[0.5 + 1e-13, 0.25, 1.0]);
        assert_eq!(a, b, "sub-resolution noise shares a key");
        let weird = quantize(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(weird, vec![i64::MIN, i64::MAX, i64::MIN + 1]);
        let features = [0.5, 1e-10, 0.0, f64::NAN, -f64::INFINITY];
        assert_eq!(*quantize_shared(&features), *quantize(&features));
    }

    #[test]
    fn shared_keys_are_stored_once_and_found_by_slice() {
        let mut c: LruCache<Arc<[i64]>, f64> = LruCache::new(2);
        let key: Arc<[i64]> = Arc::from(vec![1, 2, 3]);
        c.insert(Arc::clone(&key), 0.5);
        // The caller's handle, the index and the list node: one copy.
        assert_eq!(Arc::strong_count(&key), 3);
        assert_eq!(c.get(&[1, 2, 3][..]), Some(0.5));
        assert_eq!(c.get(&key), Some(0.5));
        c.insert(Arc::from(vec![4]), 0.25);
        c.insert(Arc::from(vec![5]), 0.75);
        assert_eq!(c.get(&[1, 2, 3][..]), None, "evicted");
        assert_eq!(Arc::strong_count(&key), 1, "eviction drops both references");
    }
}
