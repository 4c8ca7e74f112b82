//! Cache-line separator directory over a sorted slice, probed in
//! lockstep groups.
//!
//! The paper's complaint about a big index is "one cache miss at each
//! successive level of the tree"; a binary search over a sorted array
//! pays exactly that, ~log₂(n / 16) *dependent* misses per key once the
//! array outgrows the cache. This structure attacks both halves of that:
//!
//! * **Fewer levels** — the static CSS layout of Rao & Ross (the
//!   directory their CSB+ paper builds on): the sorted slice is cut into
//!   16-key blocks (one 64-byte line of `u32`), level *k* of the
//!   directory holds the last key of every block of level *k − 1*, and
//!   levels are stacked until one fits a single line. A lookup reads one
//!   line per level (5 levels at 2^23 keys, against 23 binary-search
//!   probes) and the directory is 1/15 of the key bytes, so all of it but
//!   its bottom level stays cache-resident next to any partition.
//! * **Overlapped misses** — Zhou & Ross's observation that a *batch* of
//!   index accesses can be scheduled: [`rank_batch`](RankIndex::rank_batch)
//!   walks [`GROUP`] keys down the levels together, and after each step
//!   prefetches the block that key reads at the next level, so the misses
//!   of a group are in flight at once instead of queueing behind one
//!   another. It is the native descendant of Method C-2's batching.
//! * **One pass per line** — within a line, the number of entries `≤ key`
//!   is one SSE2 compare-and-mask on x86_64 (`count_le`) rather than a
//!   chain of dependent binary-search steps, so once the misses overlap
//!   the per-level work does not become the critical path instead.
//!
//! The key slice itself is never copied or re-laid-out — it is a window
//! into a [`SharedKeys`] backing (an `Arc`-shared vector or a mapped
//! snapshot), and the directory is derived state rebuilt from it in one
//! strided pass. Blocks are cut at the slice's *real* 64-byte line
//! boundaries (the first block is short when the slice starts mid-line),
//! so a probe of the slice touches exactly one line whatever the
//! allocator or the partition bounds did to its alignment.

use crate::traits::{Cost, RankIndex};
use dini_cache_sim::{AccessKind, MemoryModel};
use dini_store::SharedKeys;
use std::ops::Range;

/// Keys per block and directory fan-out: one 64-byte cache line of `u32`.
/// The line is the unit a miss fetches, so a smaller block wastes bytes
/// already paid for and a larger one costs a second miss per level.
pub const FANOUT: usize = 16;

/// Keys walked down the levels in lockstep by
/// [`rank_batch`](RankIndex::rank_batch). Chosen by measurement (see
/// DESIGN.md, "Slave kernel"): large enough to keep every line-fill
/// buffer of a core busy, small enough that the group's state stays in
/// registers and L1.
pub const GROUP: usize = 32;

const LINE_BYTES: u64 = 64;

/// One 64-byte, 64-byte-aligned block of directory separators, padded
/// with `u32::MAX` past the level's last entry.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Line([u32; FANOUT]);

/// One directory level: `entries` separators stored in consecutive
/// [`Line`]s starting at `first_line`. Entry `j` is the last key of block
/// `j` of the level below, so `entries` is also that level's block count.
#[derive(Debug, Clone, Copy)]
struct Level {
    first_line: usize,
    entries: usize,
}

/// Ask the cache hierarchy to start fetching the line holding `ptr`.
#[inline(always)]
fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: PREFETCHT0 is a hint — it never faults, reads or writes
        // architectural state, whatever address it is given — and SSE is
        // part of the x86_64 baseline, so the instruction always exists.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(ptr.cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Number of entries of the sorted `block` that are `≤ key`: std's
/// branchless binary search. Short level-0 blocks use it on every
/// target, full lines wherever [`count_le`] has no vector form.
#[inline(always)]
fn count_le_scalar(block: &[u32], key: u32) -> usize {
    block.partition_point(|&k| k <= key)
}

/// Number of entries of the sorted 16-entry `line` that are `≤ key`, in
/// one SSE2 pass: four unsigned `>` compares (XOR-biased by `0x8000_0000`
/// so signed `pcmpgtd` orders them as `u32`), packed into one 16-bit
/// `movemask`. The line is sorted, so its `>` bits are a suffix and the
/// count is the index of the first one — `trailing_zeros` of the mask
/// with bit 16 set as a sentinel, a BSF, no population count.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn count_le(line: &[u32; FANOUT], key: u32) -> usize {
    use core::arch::x86_64::{
        __m128i, _mm_cmpgt_epi32, _mm_loadu_si128, _mm_movemask_epi8, _mm_packs_epi16,
        _mm_packs_epi32, _mm_set1_epi32, _mm_xor_si128,
    };
    let quads = line.as_ptr().cast::<__m128i>();
    // SAFETY: SSE2 is part of the x86_64 baseline, so every intrinsic
    // here exists; `line` is 64 readable bytes, so the four 16-byte loads
    // at offsets 0, 16, 32 and 48 stay inside it, and `loadu` has no
    // alignment requirement.
    let mask = unsafe {
        let bias = _mm_set1_epi32(i32::MIN);
        let key = _mm_xor_si128(_mm_set1_epi32(key as i32), bias);
        let gt = |i| _mm_cmpgt_epi32(_mm_xor_si128(_mm_loadu_si128(quads.add(i)), bias), key);
        // Each lane is 0 or −1; the saturating packs keep that, in order.
        let lo = _mm_packs_epi32(gt(0), gt(1));
        let hi = _mm_packs_epi32(gt(2), gt(3));
        _mm_movemask_epi8(_mm_packs_epi16(lo, hi)) as u32
    };
    (mask | 1 << FANOUT).trailing_zeros() as usize
}

/// [`count_le_scalar`] over a whole line, where SSE2 is not there.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn count_le(line: &[u32; FANOUT], key: u32) -> usize {
    count_le_scalar(line, key)
}

/// A sorted key slice plus its cache-line separator directory.
///
/// ```
/// use dini_cache_sim::NullMemory;
/// use dini_index::{LineDirectory, RankIndex, SharedKeys};
///
/// let keys: Vec<u32> = (1..=1000).map(|i| i * 10).collect();
/// let dir = LineDirectory::new(SharedKeys::owned(keys), 0..1000, 0, 0.0);
/// assert_eq!(dir.rank(25, &mut NullMemory).0, 2);
/// let mut ranks = Vec::new();
/// dir.rank_batch(&[0, 10, 10_000, u32::MAX], &mut ranks, &mut NullMemory);
/// assert_eq!(ranks, vec![0, 1, 1000, 1000]);
/// ```
#[derive(Debug, Clone)]
pub struct LineDirectory {
    keys: SharedKeys,
    range: Range<usize>,
    /// `u32` slots between the 64-byte boundary at or before the slice's
    /// first key and that key (0 when the slice starts on a line). Block
    /// `b` of the slice is positions `16b − skew .. 16b + 16 − skew`.
    skew: usize,
    /// Every directory level, top (single-line) level first.
    lines: Vec<Line>,
    /// Top level first; empty when the slice is at most one block.
    levels: Vec<Level>,
    /// Simulated address of the slice's first block (line-aligned); the
    /// directory lines follow the slice's last block.
    base: u64,
    /// Cost to search within one block (Table 2's `Comp Cost Node`).
    node_cost_ns: f64,
}

impl LineDirectory {
    /// Build over `keys[range]` (sorted ascending; duplicates allowed)
    /// without copying it: one strided pass reads the last key of every
    /// block, the upper levels are built from that. `base` is the
    /// simulated address of the first block, `node_cost_ns` the
    /// per-block search charge.
    pub fn new(keys: SharedKeys, range: Range<usize>, base: u64, node_cost_ns: f64) -> Self {
        let slice = &keys.as_slice()[range.clone()];
        debug_assert!(slice.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
        let skew = (slice.as_ptr() as usize / 4) % FANOUT;

        // Entry counts bottom-up: level k has one entry per block of the
        // level below, until a level fits one line.
        let mut counts = Vec::new();
        let mut blocks = (slice.len() + skew).div_ceil(FANOUT);
        while blocks > 1 {
            counts.push(blocks);
            blocks = blocks.div_ceil(FANOUT);
        }
        let mut levels = Vec::with_capacity(counts.len());
        let mut first_line = 0;
        for &entries in counts.iter().rev() {
            levels.push(Level { first_line, entries });
            first_line += entries.div_ceil(FANOUT);
        }
        let mut lines = vec![Line([u32::MAX; FANOUT]); first_line];

        // Fill bottom-up: the lowest level from the slice, each level
        // above from the one just filled.
        for (k, level) in levels.iter().enumerate().rev() {
            for j in 0..level.entries {
                let sep = match levels.get(k + 1) {
                    None => slice[((j + 1) * FANOUT - skew).min(slice.len()) - 1],
                    Some(below) => {
                        let last = ((j + 1) * FANOUT).min(below.entries) - 1;
                        lines[below.first_line + last / FANOUT].0[last % FANOUT]
                    }
                };
                lines[level.first_line + j / FANOUT].0[j % FANOUT] = sep;
            }
        }
        Self { keys, range, skew, lines, levels, base, node_cost_ns }
    }

    /// The indexed keys.
    pub fn keys(&self) -> &[u32] {
        &self.keys.as_slice()[self.range.clone()]
    }

    /// Directory levels above the key slice; a lookup reads one line of
    /// each, then one block of keys.
    pub fn directory_levels(&self) -> usize {
        self.levels.len()
    }

    /// Bytes the directory adds on top of the keys.
    pub fn directory_bytes(&self) -> u64 {
        self.lines.len() as u64 * LINE_BYTES
    }

    /// Replace the key of every `(slot, key)` pair by `base_rank +
    /// rank(key)`, walking the pairs in lockstep groups exactly like
    /// [`rank_batch`](RankIndex::rank_batch) — the in-place form a
    /// partition worker answers its share of a scattered batch with
    /// (`base_rank` = rank of the partition's first key). Allocates
    /// nothing: the group's state is a fixed-size stack array.
    pub fn rank_pairs<M: MemoryModel>(
        &self,
        pairs: &mut [(u32, u32)],
        base_rank: u32,
        mem: &mut M,
    ) -> Cost {
        let mut ns = 0.0;
        let mut group = [0u32; GROUP];
        for chunk in pairs.chunks_mut(GROUP) {
            let group = &mut group[..chunk.len()];
            for (g, &(_, key)) in group.iter_mut().zip(chunk.iter()) {
                *g = key;
            }
            ns += self.rank_group(group, mem);
            for ((_, kr), &rank) in chunk.iter_mut().zip(group.iter()) {
                *kr = base_rank + rank;
            }
        }
        ns
    }

    /// The kernel, on one group: `group` holds up to [`GROUP`] keys on
    /// entry and their ranks on return, walked down the levels in
    /// lockstep. Allocates nothing — the per-key state is a stack array —
    /// so a caller composing this directory with another can put one
    /// group through both without a second output vector.
    ///
    /// # Panics
    ///
    /// If `group` holds more than [`GROUP`] keys.
    pub fn rank_group<M: MemoryModel>(&self, group: &mut [u32], mem: &mut M) -> Cost {
        // Invariant per key going into a level: `at` is the index of the
        // one block of that level the answer lies in — every earlier
        // block is wholly `≤ key`, every later one wholly `> key`. The
        // number of the block's entries `≤ key` (`count_le` within the
        // line) therefore gives the number of entries of the whole level
        // `≤ key`, which is the number of blocks of the level below that
        // are wholly `≤ key`, i.e. the next `at` — clamped to the last
        // block, because a key `≥` the maximum (and the `u32::MAX`
        // padding, which `u32::MAX` itself counts) would step one block
        // past the end.
        assert!(group.len() <= GROUP, "a group holds at most {GROUP} keys");
        let slice = self.keys();
        let dir_base = self.base + (slice.len() + self.skew).div_ceil(FANOUT) as u64 * LINE_BYTES;
        let mut ns = 0.0;
        let mut at = [0usize; GROUP];
        for (k, level) in self.levels.iter().enumerate() {
            let below = self.levels.get(k + 1);
            for (at, &key) in at.iter_mut().zip(group.iter()) {
                let line = level.first_line + *at;
                ns += mem.touch(dir_base + line as u64 * LINE_BYTES, 64, AccessKind::Read);
                ns += mem.compute(self.node_cost_ns);
                let le = *at * FANOUT + count_le(&self.lines[line].0, key);
                *at = le.min(level.entries - 1);
                match below {
                    Some(b) => prefetch(self.lines.as_ptr().wrapping_add(b.first_line + *at)),
                    None => prefetch(
                        slice.as_ptr().wrapping_add((*at * FANOUT).saturating_sub(self.skew)),
                    ),
                }
            }
        }
        for (&at, key) in at.iter().zip(group.iter_mut()) {
            // Block `at` of the slice; short at either end of the slice.
            let lo = (at * FANOUT).saturating_sub(self.skew);
            let hi = ((at + 1) * FANOUT - self.skew).min(slice.len());
            ns += mem.touch(
                self.base + (lo + self.skew) as u64 * 4,
                ((hi - lo) * 4) as u32,
                AccessKind::Read,
            );
            ns += mem.compute(self.node_cost_ns);
            let block = &slice[lo..hi];
            let le = match block.try_into() {
                Ok(line) => count_le(line, *key),
                Err(_) => count_le_scalar(block, *key),
            };
            *key = (lo + le) as u32;
        }
        ns
    }
}

impl RankIndex for LineDirectory {
    fn len(&self) -> usize {
        self.range.len()
    }

    fn footprint_bytes(&self) -> u64 {
        self.range.len() as u64 * 4 + self.directory_bytes()
    }

    /// One walk down the levels: the same kernel as
    /// [`rank_batch`](Self::rank_batch) with a group of one.
    fn rank<M: MemoryModel>(&self, key: u32, mem: &mut M) -> (u32, Cost) {
        let mut one = [key];
        let ns = self.rank_group(&mut one, mem);
        (one[0], ns)
    }

    /// Rank `keys` in lockstep groups of [`GROUP`] so the misses of a
    /// group overlap.
    fn rank_batch<M: MemoryModel>(&self, keys: &[u32], out: &mut Vec<u32>, mem: &mut M) -> Cost {
        out.clear();
        out.extend_from_slice(keys);
        out.chunks_mut(GROUP).map(|group| self.rank_group(group, mem)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::oracle_rank;
    use dini_cache_sim::{CountingMemory, NullMemory};

    /// Keys 10, 20, 30, … so gaps exist for between-key queries.
    fn spaced(n: usize) -> Vec<u32> {
        (1..=n as u32).map(|i| i * 10).collect()
    }

    fn over(keys: Vec<u32>) -> LineDirectory {
        let n = keys.len();
        LineDirectory::new(SharedKeys::owned(keys), 0..n, 0, 0.0)
    }

    /// Every point a rank can change at, plus the extremes.
    fn probes(keys: &[u32]) -> Vec<u32> {
        let mut p = vec![0, 1, u32::MAX - 1, u32::MAX];
        for &k in keys {
            p.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        p
    }

    #[test]
    fn matches_oracle_at_every_size_and_alignment() {
        // Sizes straddling every block and level boundary (16, 16², 16³);
        // sixteen consecutive start offsets put the slice at every
        // possible position within a cache line, whatever the allocator
        // returned.
        let all = spaced(4200);
        let shared = SharedKeys::owned(all.clone());
        for n in [0usize, 1, 2, 15, 16, 17, 31, 32, 33, 255, 256, 257, 4095, 4096, 4097] {
            for start in 0..FANOUT {
                let keys = &all[start..start + n];
                let dir = LineDirectory::new(shared.clone(), start..start + n, 0, 0.0);
                assert_eq!(dir.len(), n);
                assert_eq!(dir.keys(), keys);
                for q in probes(keys) {
                    assert_eq!(
                        dir.rank(q, &mut NullMemory).0,
                        oracle_rank(keys, q),
                        "n {n} start {start} query {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn vector_count_matches_scalar_count() {
        // Sorted lines with duplicates, `u32::MAX` padding and entries
        // straddling the sign bit the vector compare biases away; every
        // key a count can change at, plus both extremes.
        let mut lines: Vec<[u32; FANOUT]> = vec![
            [0; FANOUT],
            [u32::MAX; FANOUT],
            std::array::from_fn(|i| i as u32),
            std::array::from_fn(|i| 0x8000_0000 - 8 + i as u32),
            std::array::from_fn(|i| if i < 5 { i as u32 * 3 } else { u32::MAX }),
            std::array::from_fn(|i| [0, 7, 7, 7, 0x7FFF_FFFF, 0x8000_0000][i.min(5)]),
            std::array::from_fn(|i| (i as u32 / 4) * 0x4000_0000),
        ];
        let mut x = 0x2545_F491_u32;
        for _ in 0..200 {
            let mut line: [u32; FANOUT] = std::array::from_fn(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                // A narrow window every few lines, so values repeat.
                if x.is_multiple_of(3) {
                    0x8000_0000 ^ (x % 8)
                } else {
                    x
                }
            });
            line.sort_unstable();
            let padded = (x % FANOUT as u32) as usize;
            line[FANOUT - padded..].fill(u32::MAX);
            lines.push(line);
        }
        for line in &lines {
            for q in probes(line) {
                assert_eq!(count_le(line, q), count_le_scalar(line, q), "line {line:?} key {q}");
            }
        }
    }

    #[test]
    fn one_block_or_less_needs_no_directory() {
        assert_eq!(over(vec![]).directory_levels(), 0);
        assert_eq!(over(vec![]).rank(7, &mut NullMemory).0, 0);
        assert_eq!(over(vec![5]).directory_levels(), 0);
        let big = over(spaced(50_000));
        // 3125 blocks (one more when the slice starts mid-line) → 196 →
        // 13 entries: three levels, 1/15 of the key bytes.
        assert_eq!(big.directory_levels(), 3);
        assert!(big.directory_bytes() * 14 < big.footprint_bytes());
        assert!(big.directory_bytes() * 17 > big.footprint_bytes());
    }

    #[test]
    fn duplicates_and_extreme_keys_rank_exactly() {
        // Runs of equal keys longer than a block, so separators repeat
        // across blocks and levels; u32::MAX as a key meets the padding.
        let mut keys = Vec::new();
        for v in [0u32, 7, 7, 9, 1000, u32::MAX - 1, u32::MAX] {
            keys.extend(std::iter::repeat_n(v, 37));
        }
        let dir = over(keys.clone());
        for q in probes(&keys) {
            assert_eq!(dir.rank(q, &mut NullMemory).0, oracle_rank(&keys, q), "query {q}");
        }
    }

    #[test]
    fn batch_and_pairs_agree_with_single_walks_at_every_length() {
        let keys = spaced(5000);
        let dir = over(keys.clone());
        let pool: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(2_654_435_761) % 60_000).collect();
        let mut out = vec![99; 3];
        for len in [0, 1, GROUP - 1, GROUP, GROUP + 1, 3 * GROUP + 5, 4096] {
            let queries = &pool[..len];
            dir.rank_batch(queries, &mut out, &mut NullMemory);
            assert_eq!(out.len(), len, "stale results must be cleared");
            let mut pairs: Vec<(u32, u32)> =
                queries.iter().enumerate().map(|(i, &q)| (i as u32 * 3, q)).collect();
            dir.rank_pairs(&mut pairs, 1000, &mut NullMemory);
            for (i, &q) in queries.iter().enumerate() {
                let single = dir.rank(q, &mut NullMemory).0;
                assert_eq!(single, oracle_rank(&keys, q));
                assert_eq!(out[i], single, "len {len} slot {i}");
                assert_eq!(pairs[i], (i as u32 * 3, 1000 + single), "len {len} slot {i}");
            }
        }
    }

    #[test]
    fn a_lookup_touches_one_line_per_level() {
        // 2^16 keys: 23 binary-search probes over ~13 distinct lines; the
        // directory reads one line per level plus one block of keys —
        // never more, wherever in the slice the key falls.
        let keys = spaced(1 << 16);
        let dir = LineDirectory::new(SharedKeys::owned(keys.clone()), 0..keys.len(), 1 << 20, 4.0);
        for q in [0u32, 5, 10, 163_835, 327_680, 655_360, 655_361, u32::MAX] {
            let mut m = CountingMemory::default();
            let (r, _) = dir.rank(q, &mut m);
            assert_eq!(r, oracle_rank(&keys, q));
            assert_eq!(m.random_touches(), dir.directory_levels() + 1, "query {q}");
            assert!(m.distinct_lines(64) <= dir.directory_levels() + 1, "query {q}");
            let end = (1 << 20) + dir.footprint_bytes() + 64;
            assert!(
                m.accesses.iter().all(|&(a, len, _)| a >= 1 << 20 && a + len as u64 <= end),
                "probes stay inside the structure's address range"
            );
        }
    }

    #[test]
    fn a_group_touches_what_its_single_walks_touch() {
        // Lockstep reorders the probes of a group; it must not add any.
        let dir = over(spaced(10_000));
        let queries: Vec<u32> = (0..GROUP as u32 + 3).map(|i| i * 2_999).collect();
        let mut batch = CountingMemory::default();
        dir.rank_batch(&queries, &mut Vec::new(), &mut batch);
        let mut singles = CountingMemory::default();
        for &q in &queries {
            dir.rank(q, &mut singles);
        }
        let sorted = |m: &CountingMemory| {
            let mut a: Vec<(u64, u32)> = m.accesses.iter().map(|&(a, l, _)| (a, l)).collect();
            a.sort_unstable();
            a
        };
        assert_eq!(sorted(&batch), sorted(&singles));
    }
}
