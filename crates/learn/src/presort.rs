//! Presorted column-oriented training cache for tree learners.
//!
//! CART split search needs each candidate feature's values in sorted
//! order at every node. The legacy path re-sorts per node: an
//! `O(n log n)` comparison sort of `(f64, label, weight)` tuples per
//! feature per node, gathered through the strided row-major
//! [`Matrix`]. This module replaces the expensive part of that work
//! with one sort per feature, paid once per feature, on first read:
//!
//! * [`PresortedDataset::build`] copies the matrix into column-major
//!   order and sorts nothing. The first reader of a feature — a split
//!   search sampling it, [`PresortedDataset::is_constant`], a drift
//!   profile — sorts it and keeps each row's per-feature *value rank*
//!   (ties share a rank; ranks increase in `f64::total_cmp` order) and
//!   the distinct values per rank. Every later node, tree and worker
//!   reuses that sort, and a feature no split search samples is never
//!   sorted: a twelve-tree filtering forest over thousands of columns
//!   reads only a fraction of them.
//! * [`PresortedDataset::build_sorted`] sorts every feature up front
//!   and packs the distinct values densely — the form a long-lived
//!   cache keeps, appends to and clones.
//! * With unit sample weights — every non-boosted fit —
//!   `PresortTraversal::group_node` turns a node into its per-rank
//!   class histogram in one `O(len)` pass and lists the ranks the node
//!   holds, and the split sweep runs over those *distinct values*, not
//!   over rows or over every rank the node spans. No sort, no gather,
//!   no per-row scan survives on this path. Its class counts are exact
//!   integers, which is also what lets entropy fits score each boundary
//!   from a `k·log2 k` table and compute the exact entropy only for the
//!   few that can still win (see `tree`).
//! * Weighted fits (`PresortTraversal::gather_node`) tally the node
//!   into the same rank histogram, turn the counts of the ranks it
//!   holds into slot offsets and place each row in one more pass: a
//!   counting sort over present ranks, `O(len + distinct values)`,
//!   where the legacy builder comparison-sorted float tuples. Only the
//!   features a node actually evaluates pay anything.
//! * Partitioning a node into its children touches the membership list
//!   alone (`O(len)`), not any per-feature state.
//!
//! The cache is shared: all trees of a forest fit, all AdaBoost rounds,
//! all gradient-boosting stages and all grid-search candidates
//! evaluating the same fold reuse one build. Bootstrap resampling does
//! not invalidate it either — a bootstrap sample only *repeats and
//! drops* rows, so the ranks serve it as they are. An unweighted sample
//! (`PresortTraversal::counted`) walks each drawn row once, by its own
//! id, with its draw count: about 63% (1 − 1/e) of a draw's rows are
//! distinct, and with every weight one a row drawn `k` times adds
//! exactly what `k` copies add. A weighted sample keeps one virtual row
//! per draw (`PresortTraversal::with_map`), since adding a weight `k`
//! times and adding `k` times the weight round differently.
//!
//! # Storage
//!
//! `build` allocates a few packed buffers on the calling thread: ranks
//! at a stride of the row capacity, and a slot of `n_rows` distinct
//! values per feature. A feature's sort fills its two regions in place,
//! and the feature's `OnceLock` publishes them. Forest workers share
//! the cache by `&`, so the cells are atomics (`AtomicU32` ranks,
//! `AtomicU64` value bits), written and read `Relaxed` under the lock's
//! happens-before edge; on x86-64 those are plain loads and stores. The
//! buffers start zeroed, so the pages of features nobody reads are
//! never touched. A heap buffer per feature would cost the same CPU but
//! scatter thousands of allocations over the workers' allocator arenas
//! and raise the process's resident memory. `build_sorted` allocates no
//! slots at all: it learns each feature's distinct count as it packs.
//! Allocating slots only to pack the values after sorting raised the
//! resident memory of a process holding several retraining caches by
//! about 18 MB.
//!
//! Everything here is bit-identity-preserving with respect to the
//! legacy per-node re-sort (see `DecisionTree::fit_resorting`): equal
//! ranks mean bit-identical values, and placing a node's rows by rank
//! in segment order yields exactly `(total_cmp value, row-ascending)` —
//! what the legacy stable sort produced for its always row-ascending
//! node index lists. When a feature is sorted changes nothing: its
//! ranks and distinct values depend only on its column's bits, and
//! which features a node evaluates depends only on the tree's own
//! random stream. `tests/presort_equivalence.rs`
//! pins the equivalence property-test style, lazy reads from several
//! threads included.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

use monitorless_obs as obs;

use crate::matrix::{ColumnsView, Matrix};

/// A column-major snapshot of a feature matrix whose features are
/// sorted on first read ([`PresortedDataset::build`]) or all up front
/// ([`PresortedDataset::build_sorted`]).
///
/// Built once per `(Matrix, y)` pair and shared (by reference) across
/// trees, boosting rounds and cross-validation candidates.
#[derive(Debug)]
pub struct PresortedDataset {
    /// Column-major copy of the matrix values (carries the row
    /// capacity shared with `ranks`).
    columns: ColumnsView,
    /// Per-feature value rank of each row (feature `f` owns
    /// `ranks[f*row_cap .. f*row_cap + n]`; the tail up to `row_cap`
    /// is append slack): rows with bit-identical values share a rank,
    /// and ranks increase with the `total_cmp` value order. Valid for a
    /// feature once it is `sorted`.
    ranks: Vec<AtomicU32>,
    /// Per-feature stride of `ranks` — kept equal to
    /// `columns.capacity_rows()` so in-capacity appends touch no
    /// existing rank.
    row_cap: usize,
    /// Per feature, its number of distinct ranks, set by the feature's
    /// sort. Setting it publishes the feature's `ranks` and
    /// `rank_values` regions: their cells are stored `Relaxed` inside
    /// the lock's initializer and loaded `Relaxed` only after `get` or
    /// `get_or_init` returns, and the lock's completion (a release)
    /// and a successful read of it (an acquire) order the two.
    sorted: Vec<OnceLock<u32>>,
    /// The bits of every feature's distinct values in rank order
    /// (feature `f`'s block starts at `rank_offsets[f]`). Entry `r` of
    /// a sorted feature's block is the bit-exact value all rows of rank
    /// `r` share, so consumers can turn ranks back into values without
    /// touching the columns.
    rank_values: Vec<AtomicU64>,
    /// Start of each feature's block in `rank_values`. Blocks lie in
    /// feature order: a sorted feature's holds its distinct values, an
    /// unsorted one's has room for `n_rows` of them.
    rank_offsets: Vec<usize>,
}

/// A copy of the cache as far as it is sorted. Each feature's flag is
/// read before its cells: a feature seen sorted was fully written
/// before the flag was set, and one seen unsorted is sorted again by
/// the copy on first read.
impl Clone for PresortedDataset {
    fn clone(&self) -> Self {
        let sorted = self.sorted.clone();
        PresortedDataset {
            columns: self.columns.clone(),
            ranks: self
                .ranks
                .iter()
                .map(|r| AtomicU32::new(r.load(Relaxed)))
                .collect(),
            row_cap: self.row_cap,
            sorted,
            rank_values: self
                .rank_values
                .iter()
                .map(|v| AtomicU64::new(v.load(Relaxed)))
                .collect(),
            rank_offsets: self.rank_offsets.clone(),
        }
    }
}

/// Logical equality: shape, column contents, ranks and distinct
/// values, sorting any feature either side has not read yet. Capacity
/// slack never participates, so an appended-into cache with headroom
/// still compares equal to a fresh build — except through NaN cells,
/// which (as everywhere in `f64` comparison) are unequal to themselves;
/// use [`PresortedDataset::bit_identical`] to prove NaN-holding caches
/// identical.
impl PartialEq for PresortedDataset {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns
            && (0..self.n_features()).all(|f| {
                self.n_ranks(f) == other.n_ranks(f)
                    && self.ranks(f).eq(other.ranks(f))
                    && self.rank_values(f).eq(other.rank_values(f))
            })
    }
}

/// The order-preserving bit trick: this key compares exactly like
/// `f64::total_cmp`, and key equality is bit equality.
#[inline]
fn sort_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ (1u64 << 63)
    }
}

/// Sorts one column: calls `rank(row, id)` once per row and
/// `distinct(value)` once per distinct bit pattern, in ascending
/// `total_cmp` order, where `id` counts distinct values from 0 in that
/// order. Returns the number of distinct values.
fn rank_column(
    col: &[f64],
    mut rank: impl FnMut(usize, u32),
    mut distinct: impl FnMut(f64),
) -> u32 {
    // Ranks only depend on the value blocks — not on tie order — so an
    // unstable sort of `(key, row)` pairs suffices and beats the
    // comparator-based index sort.
    let mut keyed: Vec<(u64, u32)> = col
        .iter()
        .enumerate()
        .map(|(row, &v)| (sort_key(v), row as u32))
        .collect();
    keyed.sort_unstable_by_key(|p| p.0);
    let mut id = 0u32;
    let mut prev_key = 0u64;
    for (pos, &(key, row)) in keyed.iter().enumerate() {
        if pos == 0 || key != prev_key {
            if pos > 0 {
                id += 1;
            }
            distinct(col[row as usize]);
        }
        prev_key = key;
        rank(row as usize, id);
    }
    obs::counter_add("presort.features_sorted", 1);
    if col.is_empty() {
        0
    } else {
        id + 1
    }
}

impl PresortedDataset {
    /// Builds the cache: one column gather and no sort. Each feature is
    /// sorted once, on first read.
    pub fn build(x: &Matrix) -> Self {
        Self::from_columns(|| x.columns(), false)
    }

    /// Builds the cache of `x`'s listed rows, in list order — what
    /// [`PresortedDataset::build`] of `x.select_rows(rows)` builds,
    /// without that intermediate copy.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn build_rows(x: &Matrix, rows: &[usize]) -> Self {
        Self::from_columns(|| ColumnsView::gather_rows(x, rows), false)
    }

    /// Builds the cache with every feature sorted up front and the
    /// distinct values packed densely, in `distinct` cells rather than
    /// a slot of `n_rows` per feature. This is the form for a
    /// long-lived cache that is appended to and cloned, such as the
    /// retraining loop's: no later read sorts, and no slot buffer is
    /// ever allocated.
    pub fn build_sorted(x: &Matrix) -> Self {
        Self::from_columns(|| x.columns(), true)
    }

    fn from_columns(gather: impl FnOnce() -> ColumnsView, sort_now: bool) -> Self {
        let span = obs::Span::enter("presort.build");
        let columns = gather();
        let (n, d) = (columns.rows(), columns.cols());
        let ranks: Vec<AtomicU32> = (0..n * d).map(|_| AtomicU32::new(0)).collect();
        let (sorted, rank_values, rank_offsets) = if sort_now {
            let mut packed: Vec<AtomicU64> = Vec::with_capacity(d);
            let mut offsets = Vec::with_capacity(d);
            let sorted = (0..d)
                .map(|f| {
                    offsets.push(packed.len());
                    let rk = &ranks[f * n..];
                    OnceLock::from(rank_column(
                        columns.column_slice(f),
                        |row, id| rk[row].store(id, Relaxed),
                        |v| packed.push(AtomicU64::new(v.to_bits())),
                    ))
                })
                .collect();
            (sorted, packed, offsets)
        } else {
            (
                (0..d).map(|_| OnceLock::new()).collect(),
                (0..n * d).map(|_| AtomicU64::new(0)).collect(),
                (0..d).map(|f| f * n).collect(),
            )
        };
        drop(span);
        obs::counter_add("presort.builds", 1);
        PresortedDataset {
            columns,
            ranks,
            row_cap: n,
            sorted,
            rank_values,
            rank_offsets,
        }
    }

    /// Sorts feature `f` into its regions; the caller publishes it.
    fn sort_feature(&self, f: usize) -> u32 {
        let rk = &self.ranks[f * self.row_cap..];
        let vals = &self.rank_values[self.rank_offsets[f]..];
        let mut next = 0;
        rank_column(
            self.column(f),
            |row, id| rk[row].store(id, Relaxed),
            |v| {
                vals[next].store(v.to_bits(), Relaxed);
                next += 1;
            },
        )
    }

    /// Appends `extra`'s rows to the cache incrementally: per sorted
    /// feature, one `O(m log m)` sort of the `m` new rows, one merge
    /// pass over the existing *distinct* values and one `O(n)` rank
    /// remap — instead of the full `O(n log n)` re-sort a fresh build
    /// of the concatenated matrix pays. A feature not sorted yet stays
    /// unsorted; its first read sorts the whole column. Retraining on
    /// `old + fresh episodes` therefore pays only for the delta.
    ///
    /// Bit-identical to that fresh build: ranks depend only on the
    /// multiset of value bit patterns (the order-preserving key makes
    /// key equality bit equality), and each rank's representative
    /// value is the bit pattern all its rows share, so merging old
    /// representatives with first-seen new values reproduces the
    /// from-scratch distinct values exactly. `tests/train_equivalence.rs`
    /// pins the property, NaN cells and bootstrap maps included, and
    /// `tests/presort_equivalence.rs` appends after partial reads.
    ///
    /// # Panics
    ///
    /// Panics if `extra.cols() != self.n_features()`.
    pub fn append_rows(&mut self, extra: &Matrix) {
        let d = self.n_features();
        assert_eq!(extra.cols(), d, "appended rows must match the cache's feature count");
        let m = extra.rows();
        if m == 0 {
            return;
        }
        let span = obs::Span::enter("presort.append");
        let old_n = self.n_rows();
        let n = old_n + m;
        // Grow first (columns, then the rank stride) while `n_rows()`
        // still reports the old height, then gather the delta into the
        // guaranteed slack.
        if n > self.columns.capacity_rows() {
            self.columns.reserve_total_rows(n + n / 2);
        }
        self.restride_ranks();
        self.columns.append_rows(extra);
        let cap = self.row_cap;

        // Scratch reused across features.
        let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(m);
        let mut tail_ranks = vec![0u32; m];
        let mut shift: Vec<u32> = Vec::new();
        let mut new_rank_values: Vec<AtomicU64> =
            Vec::with_capacity(self.rank_values.len() + m * d);
        let mut new_rank_offsets = Vec::with_capacity(d);

        for f in 0..d {
            new_rank_offsets.push(new_rank_values.len());
            let vals_start = new_rank_values.len();
            let Some(&r_old) = self.sorted[f].get() else {
                // Never read: room for all `n` rows' distinct values.
                new_rank_values.extend((0..n).map(|_| AtomicU64::new(0)));
                continue;
            };
            let r_old = r_old as usize;
            let col = self.columns.column_slice(f);
            let old_start = self.rank_offsets[f];
            let old_vals = &self.rank_values[old_start..old_start + r_old];
            let old_val = |i: usize| f64::from_bits(old_vals[i].load(Relaxed));
            let push = |vals: &mut Vec<AtomicU64>, v: f64| vals.push(AtomicU64::new(v.to_bits()));

            keyed.clear();
            keyed.extend((0..m).map(|j| (sort_key(col[old_n + j]), j as u32)));
            keyed.sort_unstable_by_key(|p| p.0);

            // One fused merge over the old distinct values and the
            // sorted new keys. Both sequences ascend, so a single
            // forward walk emits the merged distinct-value block,
            // decides per new key whether it joins an existing rank
            // (bit-equal value) or opens a fresh one, and records —
            // per old value — how many new ranks were inserted before
            // it (`shift`). Element-wise pushes beat bulk copies here:
            // the runs between new keys are short, so per-call
            // overhead would dominate the memcpy.
            shift.clear();
            let mut lo = 0usize;
            let mut ki = 0usize;
            let mut count = 0u32;
            while ki < m {
                let key = keyed[ki].0;
                while lo < r_old {
                    let v = old_val(lo);
                    if sort_key(v) >= key {
                        break;
                    }
                    push(&mut new_rank_values, v);
                    shift.push(count);
                    lo += 1;
                }
                let id = (new_rank_values.len() - vals_start) as u32;
                if lo < r_old && sort_key(old_val(lo)) == key {
                    push(&mut new_rank_values, old_val(lo));
                    shift.push(count);
                    lo += 1;
                } else {
                    push(&mut new_rank_values, col[old_n + keyed[ki].1 as usize]);
                    count += 1;
                }
                while ki < m && keyed[ki].0 == key {
                    tail_ranks[keyed[ki].1 as usize] = id;
                    ki += 1;
                }
            }
            new_rank_values.extend((lo..r_old).map(|i| AtomicU64::new(old_vals[i].load(Relaxed))));
            self.sorted[f] = OnceLock::from(r_old as u32 + count);

            // Remap the existing rows' ranks in place — old id `i`
            // gains `shift[i]`, the number of inserts at positions
            // <= `i` — and write the appended rows' ranks into the
            // slack tail.
            let rk = &mut self.ranks[f * cap..f * cap + n];
            if count > 0 {
                shift.resize(r_old, count);
                for v in rk[..old_n].iter_mut() {
                    let v = v.get_mut();
                    *v += shift[*v as usize];
                }
            }
            for (cell, &id) in rk[old_n..].iter_mut().zip(&tail_ranks) {
                *cell.get_mut() = id;
            }
        }
        self.rank_values = new_rank_values;
        self.rank_offsets = new_rank_offsets;
        drop(span);
        obs::counter_add("presort.appends", 1);
    }

    /// Pre-sizes the cache for `additional` more rows, so the coming
    /// appends land in existing slack instead of re-striding — the
    /// retraining loop calls this once when it adopts a cache.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.columns.reserve_total_rows(self.n_rows() + additional);
        self.restride_ranks();
    }

    /// Brings the `ranks` stride back in line with the columns' row
    /// capacity after the columns grew. Features move right-to-left and
    /// each feature's cells back to front: no destination lies below
    /// its source, so every cell is read before it is overwritten.
    fn restride_ranks(&mut self) {
        let cap = self.columns.capacity_rows();
        if cap == self.row_cap {
            return;
        }
        let (d, n, old) = (self.n_features(), self.n_rows(), self.row_cap);
        self.ranks.resize_with(cap * d, || AtomicU32::new(0));
        for f in (1..d).rev() {
            for i in (0..n).rev() {
                let r = *self.ranks[f * old + i].get_mut();
                *self.ranks[f * cap + i].get_mut() = r;
            }
        }
        self.row_cap = cap;
    }

    /// Bit-exact structural equality: like `==`, but `f64` buffers
    /// compare by bit pattern, so NaN-holding caches can still be
    /// proven identical to their independently built twins (derived
    /// `PartialEq` makes any NaN cell unequal to itself). This is the
    /// relation the append-vs-fresh-build equivalence proofs use. Like
    /// `==`, it sorts any feature either side has not read yet.
    pub fn bit_identical(&self, other: &Self) -> bool {
        fn same_bits(a: impl Iterator<Item = f64>, b: impl Iterator<Item = f64>) -> bool {
            a.map(f64::to_bits).eq(b.map(f64::to_bits))
        }
        self.n_rows() == other.n_rows()
            && self.n_features() == other.n_features()
            && (0..self.n_features()).all(|f| {
                self.n_ranks(f) == other.n_ranks(f)
                    && same_bits(self.column(f).iter().copied(), other.column(f).iter().copied())
                    && self.ranks(f).eq(other.ranks(f))
                    && same_bits(self.rank_values(f), other.rank_values(f))
            })
    }

    /// Number of rows in the underlying matrix.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.columns.rows()
    }

    /// Number of features (columns) in the underlying matrix.
    #[inline]
    pub fn n_features(&self) -> usize {
        self.columns.cols()
    }

    /// Borrowed contiguous values of feature `f`. Reading the values
    /// sorts nothing.
    #[inline]
    pub fn column(&self, f: usize) -> &[f64] {
        self.columns.column_slice(f)
    }

    /// Number of features sorted so far.
    pub fn sorted_features(&self) -> usize {
        self.sorted.iter().filter(|s| s.get().is_some()).count()
    }

    /// Number of distinct values (ranks) of feature `f`, sorting the
    /// feature on first read.
    #[inline]
    pub fn n_ranks(&self, f: usize) -> usize {
        *self.sorted[f].get_or_init(|| self.sort_feature(f)) as usize
    }

    /// Whether feature `f` holds one bit-identical non-NaN value in
    /// every row. Such a feature can never split — and, unlike the NaN
    /// case, skipping it does not consume splitter randomness. Sorts
    /// the feature on first read.
    #[inline]
    pub fn is_constant(&self, f: usize) -> bool {
        self.n_ranks(f) == 1 && !self.column(f)[0].is_nan()
    }

    /// The value ranks of feature `f`, indexed by row.
    #[inline]
    pub(crate) fn ranks_of(&self, f: usize) -> &[AtomicU32] {
        self.n_ranks(f);
        &self.ranks[f * self.row_cap..f * self.row_cap + self.n_rows()]
    }

    /// Feature `f`'s distinct values in rank order, as bits: entry `r`
    /// holds the bit-exact value every row of rank `r` holds (read it
    /// with [`value_at`]). Split scans index this slice directly.
    #[inline]
    pub(crate) fn rank_values_of(&self, f: usize) -> &[AtomicU64] {
        let len = self.n_ranks(f);
        let start = self.rank_offsets[f];
        &self.rank_values[start..start + len]
    }

    /// The value rank of every row of feature `f`, in row order: rows
    /// with bit-identical values share a rank, and ranks increase with
    /// the `total_cmp` value order.
    pub fn ranks(&self, f: usize) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.ranks_of(f).iter().map(|r| r.load(Relaxed))
    }

    /// Feature `f`'s distinct values in rank order: entry `r` is the
    /// bit-exact value every row of rank `r` holds.
    pub fn rank_values(&self, f: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.rank_values_of(f)
            .iter()
            .map(|v| f64::from_bits(v.load(Relaxed)))
    }
}

/// Entry `i` of a [`PresortedDataset::rank_values_of`] slice.
#[inline]
pub(crate) fn value_at(values: &[AtomicU64], i: usize) -> f64 {
    f64::from_bits(values[i].load(Relaxed))
}

/// Mutable per-fit traversal state over a shared [`PresortedDataset`]:
/// the node-segmented list of row ids, partition scratch and the
/// per-rank histogram every split search reads a node through.
///
/// A traversal walks *row ids*, and per-row labels and weights are
/// indexed by row id. How an id names a dataset row depends on the
/// sample:
/// * [`PresortTraversal::identity`]: id `v` is row `v`, once each;
/// * `PresortTraversal::counted` (an unweighted bootstrap): id `v` is
///   row `v`, drawn `draws[v]` times, and rows drawn zero times are not
///   walked. A node's size is its drawn count, the sum of its rows'
///   draws;
/// * [`PresortTraversal::with_map`] (a weighted bootstrap): id `j` is a
///   *virtual* row, one per draw, naming row `map[j]`.
#[derive(Debug)]
pub(crate) struct PresortTraversal<'a> {
    ps: &'a PresortedDataset,
    /// How row ids name dataset rows.
    ids: RowIds,
    /// Row ids in ascending order, segmented per node — the exact
    /// analogue of the legacy builder's `indices` lists.
    rows: Vec<u32>,
    /// Partition scratch.
    scratch: Vec<u32>,
    /// Goes-left flag per row id for the split being applied.
    side: Vec<bool>,
    /// The node's per-rank histogram: class counts for the grouped
    /// split search, slot offsets for a gather.
    groups: RankGroups,
}

/// How a [`PresortTraversal`]'s row ids name dataset rows.
#[derive(Debug)]
enum RowIds {
    /// Id `v` is dataset row `v`, drawn once.
    Identity,
    /// Id `v` is dataset row `v`, drawn `draws[v]` times.
    Counted(Vec<u32>),
    /// Id `j` is dataset row `map[j]`, drawn once; ids may share a row.
    Map(Vec<u32>),
}

impl RowIds {
    /// The virtual-row map, if ids are virtual rows.
    #[inline]
    fn map(&self) -> Option<&[u32]> {
        match self {
            RowIds::Map(map) => Some(map),
            RowIds::Identity | RowIds::Counted(_) => None,
        }
    }
}

/// Per-rank-group histogram of a node for one feature, produced by
/// [`PresortTraversal::group_node`]. Group `r` holds the node's rows of
/// rank `r`; read only the groups `present` lists.
#[derive(Debug)]
pub(crate) struct NodeGroups<'t> {
    /// Drawn rows per rank.
    pub counts: &'t [u32],
    /// Drawn label-one rows per rank.
    pub ones: &'t [u32],
    /// The ranks the node holds, ascending: the only groups a sweep
    /// needs to visit.
    pub present: &'t [u32],
}

/// A node's per-rank histogram, indexed by absolute rank and kept
/// across nodes: the grouped split search reads its class counts, and
/// a gather turns its counts into slot offsets. Between two tallies
/// only the last node's present groups are non-zero, so a node pays
/// for the ranks it holds, not for the ranks it spans. Deep nodes often
/// span many more ranks than they hold rows.
#[derive(Debug, Default)]
struct RankGroups {
    /// Drawn rows per rank.
    counts: Vec<u32>,
    /// Drawn label-one rows per rank.
    ones: Vec<u32>,
    /// One bit per rank, set by a tally and cleared as it is listed.
    bits: Vec<u64>,
    /// The ranks the last tally touched, ascending.
    present: Vec<u32>,
}

impl RankGroups {
    /// Histograms `(rank, drawn count, positive)` rows of a feature
    /// with `n_ranks` ranks, after clearing the previous tally, and
    /// lists the ranks touched.
    fn tally(&mut self, n_ranks: usize, rows: impl Iterator<Item = (u32, u32, bool)>) {
        for &r in &self.present {
            self.counts[r as usize] = 0;
            self.ones[r as usize] = 0;
        }
        self.present.clear();
        if self.counts.len() < n_ranks {
            self.counts.resize(n_ranks, 0);
            self.ones.resize(n_ranks, 0);
            self.bits.resize(n_ranks.div_ceil(64), 0);
        }
        let (mut lo, mut hi) = (usize::MAX, 0);
        for (r, c, positive) in rows {
            let r = r as usize;
            self.counts[r] += c;
            self.ones[r] += c * u32::from(positive);
            self.bits[r / 64] |= 1 << (r % 64);
            lo = lo.min(r);
            hi = hi.max(r);
        }
        for w in lo / 64..=hi / 64 {
            let mut bits = std::mem::take(&mut self.bits[w]);
            while bits != 0 {
                self.present.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

impl<'a> PresortTraversal<'a> {
    fn with_rows(ps: &'a PresortedDataset, ids: RowIds, rows: Vec<u32>) -> Self {
        let n_ids = match &ids {
            RowIds::Map(map) => map.len(),
            RowIds::Identity | RowIds::Counted(_) => ps.n_rows(),
        };
        PresortTraversal {
            ps,
            ids,
            scratch: vec![0u32; rows.len()],
            rows,
            side: vec![false; n_ids],
            groups: RankGroups::default(),
        }
    }

    /// Traversal over the matrix rows as-is (no resampling).
    pub fn identity(ps: &'a PresortedDataset) -> Self {
        Self::with_rows(ps, RowIds::Identity, (0..ps.n_rows() as u32).collect())
    }

    /// Resets an identity traversal for reuse (e.g. the next boosting
    /// round) without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the traversal was built over a sample.
    pub fn reset_identity(&mut self) {
        assert!(matches!(self.ids, RowIds::Identity), "reset_identity on a sampled traversal");
        for (j, r) in self.rows.iter_mut().enumerate() {
            *r = j as u32;
        }
    }

    /// Traversal over an unweighted (bootstrap) sample that drew row
    /// `v` `draws[v]` times: it walks each drawn row once, by its own
    /// id, and counts it `draws[v]` times. With every weight one, a
    /// node's class counts are exact integers however they are summed,
    /// so a fit on this traversal grows the tree a fit on the
    /// materialized sample grows.
    ///
    /// # Panics
    ///
    /// Panics if `draws` does not hold one count per dataset row.
    pub(crate) fn counted(ps: &'a PresortedDataset, draws: Vec<u32>) -> Self {
        assert_eq!(draws.len(), ps.n_rows(), "one draw count per dataset row");
        let rows = (0..draws.len() as u32)
            .filter(|&v| draws[v as usize] > 0)
            .collect();
        Self::with_rows(ps, RowIds::Counted(draws), rows)
    }

    /// Traversal over a (bootstrap) sample: virtual row `j` is original
    /// row `map[j]`. Weighted samples take this form, since adding a
    /// weight `k` times and adding `k` times the weight round
    /// differently.
    pub fn with_map(ps: &'a PresortedDataset, map: Vec<u32>) -> Self {
        let rows = (0..map.len() as u32).collect();
        Self::with_rows(ps, RowIds::Map(map), rows)
    }

    /// The shared dataset this traversal walks.
    #[inline]
    pub fn dataset(&self) -> &'a PresortedDataset {
        self.ps
    }

    /// Number of row ids walked (distinct rows for a counted sample).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The length per-row labels and weights must have: one entry per
    /// row id.
    #[inline]
    pub(crate) fn n_ids(&self) -> usize {
        self.side.len()
    }

    /// Value of feature `f` at row id `v`.
    #[inline]
    pub fn value(&self, f: usize, v: u32) -> f64 {
        let row = match self.ids.map() {
            Some(map) => map[v as usize],
            None => v,
        };
        self.ps.column(f)[row as usize]
    }

    /// Ascending row ids of the node spanning `[lo, hi)`.
    #[inline]
    pub fn rows_segment(&self, lo: usize, hi: usize) -> &[u32] {
        &self.rows[lo..hi]
    }

    /// The drawn size of the node `[lo, hi)` and its drawn label-one
    /// rows (`y` indexed by row id): the segment's length and label
    /// count, or, for a counted sample, the sums of its rows' draws.
    pub(crate) fn drawn(&self, lo: usize, hi: usize, y: &[u8]) -> (usize, usize) {
        let seg = &self.rows[lo..hi];
        match &self.ids {
            RowIds::Counted(draws) => seg.iter().fold((0, 0), |(n, n1), &v| {
                let c = draws[v as usize] as usize;
                (n + c, n1 + c * usize::from(y[v as usize] == 1))
            }),
            RowIds::Identity | RowIds::Map(_) => {
                let n1 = seg.iter().filter(|&&v| y[v as usize] == 1).count();
                (seg.len(), n1)
            }
        }
    }

    /// Calls `emit(slot, row_id, value)` exactly once for every row id
    /// of the node `[lo, hi)`, where `slot` is the id's position in
    /// `(total_cmp value, id-ascending)` order — the exact order the
    /// legacy builder's per-node stable sort produced. Calls may
    /// arrive out of order; the caller writes `slot` of its own
    /// pre-sized buffers, so the sorted gather is built in one pass
    /// fused into the placement. A counted sample's draws are not
    /// applied: each drawn row is emitted once.
    ///
    /// The node is tallied into the rank histogram [`Self::group_node`]
    /// fills, the counts of the ranks it holds become slot offsets, and
    /// one pass over the segment places each id at its rank's next
    /// slot. The segment is id-ascending, so ties stay id-ascending.
    ///
    /// Returns `false` — without emitting anything — when the node is
    /// empty, or when the feature is constant and non-NaN across the
    /// node, i.e. exactly when the caller's `lo_v == hi_v` guard would
    /// discard the gather unread (bit-identical non-NaN values always
    /// compare equal). The caller must still keep that guard: a node
    /// mixing `-0.0` and `+0.0` spans two ranks yet compares equal.
    pub fn gather_node(
        &mut self,
        feature: usize,
        lo: usize,
        hi: usize,
        mut emit: impl FnMut(usize, u32, f64),
    ) -> bool {
        let col = self.ps.column(feature);
        let rk = self.ps.ranks_of(feature);
        let values = self.ps.rank_values_of(feature);
        let seg = &self.rows[lo..hi];
        let map = self.ids.map();
        let row_of = |v: u32| match map {
            Some(map) => map[v as usize] as usize,
            None => v as usize,
        };
        let groups = &mut self.groups;
        groups.tally(values.len(), seg.iter().map(|&v| (rk[row_of(v)].load(Relaxed), 1, false)));
        match groups.present[..] {
            [] => return false,
            [r] if !value_at(values, r as usize).is_nan() => return false,
            _ => {}
        }
        let mut slot = 0;
        for &r in &groups.present {
            let count = &mut groups.counts[r as usize];
            (*count, slot) = (slot, slot + *count);
        }
        for &v in seg {
            let row = row_of(v);
            let next = &mut groups.counts[rk[row].load(Relaxed) as usize];
            emit(*next as usize, v, col[row]);
            *next += 1;
        }
        true
    }

    /// Builds the per-rank-group class histogram of the node `[lo, hi)`
    /// for `feature`: one `O(len)` pass over its row ids, no sort, no
    /// placement, then one walk over a bitmap of the ranks the pass
    /// touched, which lists the node's non-empty groups in rank order.
    /// `y` holds the labels by row id (`1` = positive class). A counted
    /// sample's row adds its draw count to its group's rows, and
    /// count × label to its positives.
    ///
    /// This is the unit-weight split search's whole input: with all
    /// sample weights exactly `1.0`, class-weight sums are exact
    /// integer counts, so a sweep over the present rank groups —
    /// `O(distinct values)` — reproduces the legacy per-row sweep over
    /// the materialized sample bit for bit (integer addition is
    /// order-independent, and each group's value comes back bit-exact
    /// via [`PresortedDataset::rank_values`]).
    ///
    /// Returns `None` when the node is empty, or when the feature is
    /// constant and non-NaN across the node — exactly when the
    /// caller's `lo_v == hi_v` guard would discard the result (see
    /// [`Self::gather_node`]).
    pub fn group_node(
        &mut self,
        feature: usize,
        lo: usize,
        hi: usize,
        y: &[u8],
    ) -> Option<NodeGroups<'_>> {
        let rk = self.ps.ranks_of(feature);
        let values = self.ps.rank_values_of(feature);
        let seg = &self.rows[lo..hi];
        let groups = &mut self.groups;
        let n_ranks = values.len();
        let rank = |row: u32| rk[row as usize].load(Relaxed);
        let positive = |v: u32| y[v as usize] == 1;
        match &self.ids {
            RowIds::Identity => {
                groups.tally(n_ranks, seg.iter().map(|&v| (rank(v), 1, positive(v))));
            }
            RowIds::Counted(draws) => {
                let c = |v: u32| draws[v as usize];
                groups.tally(n_ranks, seg.iter().map(|&v| (rank(v), c(v), positive(v))));
            }
            RowIds::Map(map) => {
                let row = |v: u32| map[v as usize];
                groups.tally(n_ranks, seg.iter().map(|&v| (rank(row(v)), 1, positive(v))));
            }
        }
        match groups.present[..] {
            [] => return None,
            [r] if !value_at(values, r as usize).is_nan() => return None,
            _ => {}
        }
        Some(NodeGroups {
            counts: &groups.counts,
            ones: &groups.ones,
            present: &groups.present,
        })
    }

    /// Stably partitions the node `[lo, hi)` by
    /// `value(feature, v) <= threshold` and returns the left child's
    /// size. Only the membership list moves — per-feature sorted orders
    /// are re-derived from the ranks on demand, so unevaluated features
    /// cost nothing.
    pub fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let mut n_left = 0usize;
        for &v in &self.rows[lo..hi] {
            let left = self.value(feature, v) <= threshold;
            self.side[v as usize] = left;
            n_left += usize::from(left);
        }
        let side = &self.side;
        let scratch = &mut self.scratch[..hi - lo];
        stable_split(&mut self.rows[lo..hi], scratch, side, n_left);
        n_left
    }
}

/// Stable two-way partition of `seg` by `side[v]`, via `scratch`.
fn stable_split(seg: &mut [u32], scratch: &mut [u32], side: &[bool], n_left: usize) {
    let mut l = 0usize;
    let mut r = n_left;
    for &v in seg.iter() {
        if side[v as usize] {
            scratch[l] = v;
            l += 1;
        } else {
            scratch[r] = v;
            r += 1;
        }
    }
    seg.copy_from_slice(scratch);
}

/// A lazily built, thread-safe per-dataset cache that classifiers can
/// share across fits on the same matrix (grid-search folds, the
/// Table 3 comparison, repeated retraining).
///
/// Only tree-family classifiers request the presorted view, so the
/// column gather is paid on first use — linear models never trigger
/// it — and each feature's sort on the first split search that reads
/// it, by whichever fit gets there first.
#[derive(Debug, Default)]
pub struct FitCache {
    presorted: OnceLock<PresortedDataset>,
}

impl FitCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        FitCache::default()
    }

    /// The presorted view of `x`, building it on first use.
    ///
    /// All calls must pass the same matrix the cache was first used
    /// with; shapes are asserted.
    pub fn presorted(&self, x: &Matrix) -> &PresortedDataset {
        if self.presorted.get().is_some() {
            obs::counter_add("presort.cache_hits", 1);
        }
        let ps = self.presorted.get_or_init(|| PresortedDataset::build(x));
        assert_eq!(
            (ps.n_rows(), ps.n_features()),
            (x.rows(), x.cols()),
            "FitCache reused with a differently shaped matrix"
        );
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> Matrix {
        Matrix::from_rows(&[
            &[3.0, 1.0],
            &[1.0, 1.0],
            &[2.0, 1.0],
            &[1.0, 0.0],
            &[3.0, 2.0],
        ])
    }

    fn sorted_rows(t: &mut PresortTraversal<'_>, f: usize, lo: usize, hi: usize) -> Vec<u32> {
        let mut out = vec![u32::MAX; hi - lo];
        let emitted = t.gather_node(f, lo, hi, |slot, v, _| out[slot] = v);
        assert!(emitted, "gather skipped a non-constant node");
        out
    }

    #[test]
    fn ranks_follow_value_order_with_shared_ties() {
        let ps = PresortedDataset::build(&sample_matrix());
        assert_eq!(ps.ranks(0).collect::<Vec<_>>(), [2, 0, 1, 0, 2]);
        assert_eq!(ps.ranks(1).collect::<Vec<_>>(), [1, 1, 1, 0, 2]);
        assert_eq!((ps.n_ranks(0), ps.n_ranks(1)), (3, 3));
        assert_eq!(ps.rank_values(0).collect::<Vec<_>>(), [1.0, 2.0, 3.0]);
        assert!(!ps.is_constant(0));
    }

    #[test]
    fn sorted_order_is_value_then_row_ascending() {
        let ps = PresortedDataset::build(&sample_matrix());
        let mut t = PresortTraversal::identity(&ps);
        assert_eq!(sorted_rows(&mut t, 0, 0, 5), vec![1, 3, 2, 0, 4]);
        assert_eq!(sorted_rows(&mut t, 1, 0, 5), vec![3, 0, 1, 2, 4]);
    }

    #[test]
    fn nan_sorts_last_with_total_order() {
        let x = Matrix::from_rows(&[&[f64::NAN], &[1.0], &[f64::NAN], &[0.0]]);
        let ps = PresortedDataset::build(&x);
        let mut t = PresortTraversal::identity(&ps);
        assert_eq!(sorted_rows(&mut t, 0, 0, 4), vec![3, 1, 0, 2]);
        // Bit-identical NaNs share a rank, and an all-NaN-free constant
        // check must not claim a NaN column.
        assert_eq!(ps.n_ranks(0), 3);
        assert!(!ps.is_constant(0));
    }

    #[test]
    fn partition_keeps_children_row_ascending() {
        let ps = PresortedDataset::build(&sample_matrix());
        let mut t = PresortTraversal::identity(&ps);
        // Split on feature 0 at 1.5: rows 1 and 3 go left.
        let n_left = t.partition(0, 5, 0, 1.5);
        assert_eq!(n_left, 2);
        assert_eq!(t.rows_segment(0, 2), &[1, 3]);
        assert_eq!(t.rows_segment(2, 5), &[0, 2, 4]);
        // Sorted orders re-derived per child stay consistent.
        assert_eq!(sorted_rows(&mut t, 1, 0, 2), vec![3, 1]);
        assert_eq!(sorted_rows(&mut t, 1, 2, 5), vec![0, 2, 4]);
    }

    #[test]
    fn mapped_order_matches_stable_sort_of_materialized_sample() {
        let x = sample_matrix();
        let ps = PresortedDataset::build(&x);
        let map = vec![4u32, 0, 0, 2, 1, 3];
        let mut t = PresortTraversal::with_map(&ps, map.clone());
        for f in 0..x.cols() {
            let mut expect: Vec<u32> = (0..map.len() as u32).collect();
            expect.sort_by(|&a, &b| {
                x.get(map[a as usize] as usize, f)
                    .total_cmp(&x.get(map[b as usize] as usize, f))
            });
            assert_eq!(sorted_rows(&mut t, f, 0, map.len()), expect, "feature {f}");
        }
    }

    /// `(rank, drawn rows, drawn label-one rows)` of each group the node
    /// holds, or `None` for a node-constant feature.
    fn tallies(
        t: &mut PresortTraversal<'_>,
        f: usize,
        (lo, hi): (usize, usize),
        y: &[u8],
    ) -> Option<Vec<(u32, u32, u32)>> {
        let g = t.group_node(f, lo, hi, y)?;
        Some(
            g.present
                .iter()
                .map(|&r| (r, g.counts[r as usize], g.ones[r as usize]))
                .collect(),
        )
    }

    #[test]
    fn counted_groups_match_the_mapped_sample() {
        let ps = PresortedDataset::build(&sample_matrix());
        let map = vec![4u32, 0, 0, 2, 1, 3, 0];
        let y = [1u8, 0, 1, 0, 1];
        let yb: Vec<u8> = map.iter().map(|&r| y[r as usize]).collect();
        let mut draws = vec![0u32; 5];
        for &r in &map {
            draws[r as usize] += 1;
        }
        let mut counted = PresortTraversal::counted(&ps, draws);
        let mut mapped = PresortTraversal::with_map(&ps, map);
        assert_eq!((counted.len(), counted.drawn(0, 5, &y)), (5, (7, 5)));
        for f in 0..2 {
            let want = tallies(&mut mapped, f, (0, 7), &yb);
            assert_eq!(tallies(&mut counted, f, (0, 5), &y), want, "feature {f}");
        }
        assert_eq!(
            tallies(&mut counted, 1, (0, 5), &y),
            Some(vec![(0, 1, 0), (1, 5, 4), (2, 1, 1)])
        );
        // Split on feature 0 at 1.5: rows 1 and 3 go left. The right
        // child's tallies start from clean counters, and the left child
        // is constant on feature 0.
        assert_eq!(counted.partition(0, 5, 0, 1.5), 2);
        assert_eq!(mapped.partition(0, 7, 0, 1.5), 2);
        assert_eq!(counted.drawn(2, 5, &y), (5, 5));
        for f in 0..2 {
            let want = tallies(&mut mapped, f, (2, 7), &yb);
            assert_eq!(tallies(&mut counted, f, (2, 5), &y), want, "feature {f}");
        }
        assert_eq!(tallies(&mut counted, 1, (2, 5), &y), Some(vec![(1, 4, 4), (2, 1, 1)]));
        assert_eq!(tallies(&mut counted, 0, (0, 2), &y), None);
    }

    #[test]
    fn reset_identity_restores_row_order() {
        let ps = PresortedDataset::build(&sample_matrix());
        let mut t = PresortTraversal::identity(&ps);
        t.partition(0, 5, 0, 1.5);
        t.reset_identity();
        assert_eq!(t.rows_segment(0, 5), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn constant_column_is_detected() {
        let x = Matrix::from_rows(&[&[2.5, 1.0], &[2.5, 2.0], &[2.5, 3.0]]);
        let ps = PresortedDataset::build(&x);
        assert!(ps.is_constant(0));
        assert!(!ps.is_constant(1));
    }

    #[test]
    fn node_constant_gather_is_skipped_unless_nan() {
        // Column 0: constant within the node [0, 3) only; column 1 is
        // NaN-constant and must still emit (the caller's `lo_v == hi_v`
        // guard is false for NaN, so legacy would proceed).
        let x = Matrix::from_rows(&[
            &[5.0, f64::NAN],
            &[5.0, f64::NAN],
            &[5.0, f64::NAN],
            &[7.0, f64::NAN],
        ]);
        let ps = PresortedDataset::build(&x);
        let mut t = PresortTraversal::identity(&ps);
        let mut hits = 0usize;
        assert!(!t.gather_node(0, 0, 3, |_, _, _| hits += 1));
        assert_eq!(hits, 0);
        assert!(t.gather_node(1, 0, 3, |_, _, _| hits += 1));
        assert_eq!(hits, 3);
        assert!(t.gather_node(0, 0, 4, |_, _, _| hits += 1));
        assert_eq!(hits, 7);
    }

    #[test]
    fn append_rows_matches_fresh_build() {
        let base = sample_matrix();
        let extra = Matrix::from_rows(&[&[2.0, 5.0], &[0.5, 1.0], &[3.0, -1.0]]);
        let mut ps = PresortedDataset::build(&base);
        ps.append_rows(&extra);
        assert_eq!(ps, PresortedDataset::build(&base.vstack(&extra)));
        // Appending nothing changes nothing.
        let before = ps.clone();
        ps.append_rows(&Matrix::zeros(0, 2));
        assert_eq!(ps, before);
    }

    #[test]
    fn append_rows_handles_nan_zero_signs_and_ties() {
        let base = Matrix::from_rows(&[&[f64::NAN, -0.0], &[1.0, 0.0], &[1.0, 3.0]]);
        let extra = Matrix::from_rows(&[
            &[f64::NAN, 0.0],
            &[-1.0, -0.0],
            &[1.0, f64::NAN],
            &[f64::INFINITY, 3.0],
        ]);
        let mut ps = PresortedDataset::build(&base);
        ps.append_rows(&extra);
        let fresh = PresortedDataset::build(&base.vstack(&extra));
        // Derived `PartialEq` cannot see through NaN cells; the
        // bit-exact relation can (and `==` must disagree here, proving
        // the NaN cells are really present).
        assert!(ps.bit_identical(&fresh));
        assert_ne!(ps, fresh);
    }

    #[test]
    fn append_into_empty_cache_matches_fresh_build() {
        let extra = sample_matrix();
        let mut ps = PresortedDataset::build(&Matrix::zeros(0, 2));
        ps.append_rows(&extra);
        assert_eq!(ps, PresortedDataset::build(&extra));
    }

    #[test]
    #[should_panic(expected = "feature count")]
    fn append_rejects_width_mismatch() {
        PresortedDataset::build(&sample_matrix()).append_rows(&Matrix::zeros(1, 3));
    }

    #[test]
    fn features_sort_on_first_read_only() {
        let ps = PresortedDataset::build(&sample_matrix());
        assert_eq!(ps.sorted_features(), 0);
        // Column values are there without a sort.
        assert_eq!(ps.column(1), &[1.0, 1.0, 1.0, 0.0, 2.0]);
        assert_eq!(ps.sorted_features(), 0);
        assert!(!ps.is_constant(1));
        assert_eq!(ps.sorted_features(), 1);
        let eager = PresortedDataset::build_sorted(&sample_matrix());
        assert_eq!(eager.sorted_features(), 2);
        // Packed densely: one cell per distinct value.
        assert_eq!(eager.rank_values.len(), 6);
        assert_eq!(eager, ps);
    }

    #[test]
    fn build_rows_matches_build_of_the_selected_rows() {
        let x = sample_matrix();
        let rows = [4, 0, 0, 3];
        let ps = PresortedDataset::build_rows(&x, &rows);
        assert_eq!(ps, PresortedDataset::build(&x.select_rows(&rows)));
    }

    #[test]
    fn stump_forest_sorts_only_the_sampled_features() {
        // Every column separates the label, so each tree's root split
        // is pure and every tree is a stump: a tree reads only the
        // sqrt(2000) = 44 features its root samples.
        let (rows, cols) = (150, 2000);
        let y: Vec<u8> = (0..rows).map(|r| (r % 2) as u8).collect();
        let data = (0..rows)
            .flat_map(|r| {
                let sign = if y[r] == 1 { 1.0 } else { -1.0 };
                (0..cols).map(move |c| sign * (1.0 + ((r * 31 + c * 17) % 13) as f64 / 100.0))
            })
            .collect();
        let x = Matrix::from_vec(rows, cols, data);
        let ps = PresortedDataset::build(&x);
        let mut rf = crate::RandomForest::new(crate::RandomForestParams {
            n_estimators: 12,
            ..crate::RandomForestParams::default()
        });
        rf.fit_presorted(&ps, &y, None).unwrap();
        assert!(rf.trees().iter().all(|t| t.node_count() == 3), "every tree is a stump");
        let sorted = ps.sorted_features();
        assert!(sorted > 0 && sorted < cols / 3, "{sorted} of {cols} columns sorted");
        assert_eq!(PresortedDataset::build_sorted(&x).sorted_features(), cols);
    }

    #[test]
    fn fit_cache_builds_once() {
        let x = sample_matrix();
        let cache = FitCache::new();
        let a = cache.presorted(&x) as *const PresortedDataset;
        let b = cache.presorted(&x) as *const PresortedDataset;
        assert_eq!(a, b);
    }
}
