//! The precomputed cost-matrix scoring engine.
//!
//! Every matcher scores mappings from the same leaves: per-node
//! assignment costs (name dissimilarity blended with type
//! incompatibility) and per-edge structural penalties. The node costs
//! are by far the expensive part — full string similarity per
//! `(personal_name, repo_name)` pair — and the same *distinct* pair
//! recurs across schemas, matchers, runs, and *problems*. [`CostMatrix`]
//! pulls them from the repository's score store
//! ([`smx_repo::LabelStore`]):
//!
//! 1. per *distinct* personal label, one dense distance row against
//!    every repository label is fetched from the store — computed by a
//!    batched row-kernel sweep on first sight of the label and **cached
//!    on the repository**, so a repeated query against the same
//!    repository refills its matrix without evaluating a single string
//!    pair;
//! 2. per repository schema, the dense `k × n` node-cost table is filled
//!    from those rows (indexed through the store's per-schema label
//!    column maps) plus the (cheap) type blend;
//! 3. per-level row minima and their suffix sums — the admissible
//!    branch-and-bound bounds — are precomputed alongside.
//!
//! Matchers read costs and bounds with plain indexed loads (no locks, no
//! string traffic, no allocation). The engine is cached inside
//! [`MatchProblem`] behind a `OnceLock`, so S1 and every S2 variant share
//! one fill.
//!
//! **Score identity.** The bounds methodology requires S1 and S2 to share
//! Δ *exactly*. The store's rows are bitwise identical to
//! [`ObjectiveFunction::name_distance`] (the row kernel's contract, see
//! `smx_text::kernel`), the fill blends them through the same
//! [`ObjectiveFunction::blend`] the direct
//! [`ObjectiveFunction::node_cost`] path uses, and
//! [`CostMatrix::mapping_cost`] replicates
//! [`ObjectiveFunction::mapping_cost`]'s summation order term by term —
//! so matrix-backed scores are **bitwise identical** to direct
//! evaluation. `tests/score_identity.rs` asserts this for all matchers;
//! [`SchemaTable::compute_direct`] stays as the oracle.

use crate::objective::{ObjectiveConfig, ObjectiveFunction};
use crate::problem::MatchProblem;
use smx_repo::SchemaId;
use smx_xml::{NodeId, Schema};
use std::collections::HashMap;
use std::sync::Arc;

/// Dense per-schema node-cost table with branch-and-bound bounds.
#[derive(Debug, Clone)]
pub struct SchemaTable {
    /// Number of schema nodes (columns).
    n: usize,
    /// `k × n` node costs, level-major: `costs[level * n + node]`.
    costs: Vec<f64>,
    /// Per-level minimum node cost (the admissible per-node bound).
    row_min: Vec<f64>,
    /// Suffix sums of `row_min`: `suffix_min[i] = Σ_{j≥i} row_min[j]`,
    /// with `suffix_min[k] = 0` — the optimistic completion cost used to
    /// prune.
    suffix_min: Vec<f64>,
}

/// The shared zero-column table served for candidate-pruned schemas:
/// matchers check `MatchProblem::is_active` (or see `n == 0`) and skip
/// such schemas before touching any table accessor, so one static
/// placeholder serves every pruned schema of every restricted matrix
/// without a per-schema allocation.
static EMPTY_TABLE: SchemaTable = SchemaTable {
    n: 0,
    costs: Vec::new(),
    row_min: Vec::new(),
    suffix_min: Vec::new(),
};

impl SchemaTable {
    fn from_costs(k: usize, n: usize, costs: Vec<f64>) -> Self {
        debug_assert_eq!(costs.len(), k * n);
        let row_min: Vec<f64> = (0..k)
            .map(|level| {
                costs[level * n..(level + 1) * n]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let mut suffix_min = vec![0.0f64; k + 1];
        for i in (0..k).rev() {
            suffix_min[i] = suffix_min[i + 1] + row_min[i];
        }
        SchemaTable {
            n,
            costs,
            row_min,
            suffix_min,
        }
    }

    /// Direct (non-memoised) fill: every cell goes through
    /// [`ObjectiveFunction::node_cost`] on raw strings. This is the
    /// pre-engine evaluation path, kept as the baseline the benches and
    /// the score-identity tests compare the matrix against.
    pub fn compute_direct(
        problem: &MatchProblem,
        schema: &Schema,
        objective: &ObjectiveFunction,
    ) -> Self {
        let personal = problem.personal();
        let k = problem.personal_size();
        let n = schema.len();
        let mut costs = Vec::with_capacity(k * n);
        for &pid in problem.personal_order() {
            for t in schema.node_ids() {
                costs.push(objective.node_cost(personal, pid, schema, t));
            }
        }
        SchemaTable::from_costs(k, n, costs)
    }

    /// Number of schema nodes (columns).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Node cost of assigning personal level `level` to the schema node
    /// with arena index `node` — one indexed load.
    #[inline]
    pub fn cost(&self, level: usize, node: usize) -> f64 {
        self.costs[level * self.n + node]
    }

    /// The whole cost row of `level`.
    #[inline]
    pub fn row(&self, level: usize) -> &[f64] {
        &self.costs[level * self.n..(level + 1) * self.n]
    }

    /// Minimum node cost at `level` — replaces the `O(n)` rescan of
    /// `ObjectiveFunction::min_node_cost`.
    #[inline]
    pub fn row_min(&self, level: usize) -> f64 {
        self.row_min[level]
    }

    /// Suffix sums of per-level minima (`suffix_min()[k] == 0`).
    #[inline]
    pub fn suffix_min(&self) -> &[f64] {
        &self.suffix_min
    }
}

/// Precomputed node costs and admissible bounds for one
/// [`MatchProblem`] under one [`ObjectiveFunction`].
#[derive(Debug, Clone)]
pub struct CostMatrix {
    objective: ObjectiveFunction,
    /// Normalisation denominator `k + e · structure_weight`.
    denom: f64,
    /// Unrestricted fill: one table per repository schema, indexed by
    /// `SchemaId`. Candidate-restricted fill: only the *active* schemas'
    /// tables, addressed through `sparse`.
    tables: Vec<SchemaTable>,
    /// `None` for a dense (unrestricted) matrix. For a restricted one,
    /// `sparse[sid.index()]` is the schema's slot in `tables`, or
    /// `u32::MAX` for pruned schemas — those are served the shared
    /// [`EMPTY_TABLE`] instead of materialising a struct each.
    sparse: Option<Vec<u32>>,
}

impl CostMatrix {
    /// Precompute the engine: fetch one score row per distinct personal
    /// label from the repository's [`smx_repo::LabelStore`] — all in one
    /// batched [`score_rows`](smx_repo::LabelStore::score_rows) call, so
    /// every missing row is computed by a single shared sweep over the
    /// stored profiles — then fill every schema's cost table and bounds
    /// from those rows.
    pub fn build(problem: &MatchProblem, objective: &ObjectiveFunction) -> Self {
        Self::build_pinned(problem, objective, &HashMap::new())
    }

    /// [`build`](Self::build), but rows already in the caller's hand —
    /// the batch subsystem's prefetched `Arc`s — are used directly
    /// instead of being looked up again in the store. This is what
    /// closes the cross-batch row-sharing hazard: an LRU bound below the
    /// batch vocabulary can evict a prefetched row from the *cache*, but
    /// it cannot take it out of the caller's `Arc`, so the fill neither
    /// recomputes nor re-sweeps it.
    ///
    /// Pinned rows must come from this problem's repository store (the
    /// batch guarantees that); entries of the wrong length (the store
    /// grew since the prefetch) are ignored and fetched fresh, so the
    /// result is always bitwise identical to [`build`](Self::build).
    pub fn build_pinned(
        problem: &MatchProblem,
        objective: &ObjectiveFunction,
        pinned: &HashMap<&str, Arc<Vec<f64>>>,
    ) -> Self {
        let mut span = smx_obs::span("cost_matrix.build");
        let personal = problem.personal();
        let k = problem.personal_size();
        let store = problem.repository().store();
        // One store row per *distinct* personal label; `level_rows[level]`
        // indexes into `rows` so duplicate personal names share a sweep.
        let names = problem.distinct_personal_labels();
        let expected = store.len();
        let mut rows: Vec<Option<Arc<Vec<f64>>>> = names
            .iter()
            .map(|name| {
                pinned
                    .get(name)
                    .filter(|row| row.len() == expected)
                    .map(Arc::clone)
            })
            .collect();
        let missing: Vec<&str> = names
            .iter()
            .zip(&rows)
            .filter(|(_, row)| row.is_none())
            .map(|(&name, _)| name)
            .collect();
        let row_of: HashMap<&str, usize> = names
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, i))
            .collect();
        let level_rows: Vec<usize> = problem
            .personal_order()
            .iter()
            .map(|&pid| row_of[personal.node(pid).name.as_str()])
            .collect();
        let personal_types: Vec<_> = problem
            .personal_order()
            .iter()
            .map(|&pid| personal.node(pid).ty)
            .collect();
        let repo = problem.repository();
        // The windowed fill: an unrestricted problem whose distinct
        // vocabulary exceeds a bounded store's row cap would otherwise
        // sweep every missing row in one batch and hold all of them
        // live at once — the LRU evicts each row as the next lands, so
        // nothing useful survives in the cache while peak memory still
        // scales with the whole vocabulary. Instead, fetch missing rows
        // in windows of the cap and stripe-fill pre-allocated cost
        // tables window by window: each window's `Arc`s drop before the
        // next sweep, bounding live rows by the cap. Every cell is the
        // same pure `blend` of the same score-row value, written to the
        // same position — bitwise identical to the one-shot fill (the
        // `windowed_fill_matches_one_shot_bitwise` test).
        let window = match problem.active_set() {
            None => store
                .config()
                .max_cached_rows
                .filter(|&cap| missing.len() > cap.max(1))
                .map(|cap| cap.max(1)),
            Some(_) => None,
        };
        let (tables, sparse, fill_windows): (Vec<SchemaTable>, _, u64) = if let Some(w) = window {
            // Which personal levels read each distinct-label row — a
            // row's stripe touches exactly those levels of every table.
            let mut levels_of: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
            for (level, &ri) in level_rows.iter().enumerate() {
                levels_of[ri].push(level);
            }
            let mut costs: Vec<Vec<f64>> =
                repo.iter().map(|(_, s)| vec![0.0; k * s.len()]).collect();
            let mut stripe = |ri: usize, row: &[f64]| {
                for &level in &levels_of[ri] {
                    let p_ty = personal_types[level];
                    for (sid, schema) in repo.iter() {
                        let labels = store.schema_labels(sid);
                        let n = schema.len();
                        let base = level * n;
                        let table = &mut costs[sid.index()];
                        for (t, target) in schema.node_ids().enumerate() {
                            let nd = row[labels[t].index()];
                            let td = 1.0 - p_ty.compatibility(schema.node(target).ty);
                            table[base + t] = objective.blend(nd, td);
                        }
                    }
                }
            };
            // Rows already in hand (the batch's pinned `Arc`s) stripe
            // immediately; only the missing ones are windowed.
            for (ri, row) in rows.iter().enumerate() {
                if let Some(row) = row {
                    stripe(ri, row);
                }
            }
            let missing_ri: Vec<usize> = rows
                .iter()
                .enumerate()
                .filter(|(_, row)| row.is_none())
                .map(|(ri, _)| ri)
                .collect();
            let mut windows = 0u64;
            for chunk in missing_ri.chunks(w) {
                let queries: Vec<&str> = chunk.iter().map(|&ri| names[ri]).collect();
                let fetched = store.score_rows(&queries);
                for (&ri, row) in chunk.iter().zip(&fetched) {
                    stripe(ri, row);
                }
                windows += 1;
            }
            let tables = repo
                .iter()
                .zip(costs)
                .map(|((_, schema), c)| SchemaTable::from_costs(k, schema.len(), c))
                .collect();
            (tables, None, windows)
        } else {
            if !missing.is_empty() {
                // A candidate-restricted problem scores only the label
                // columns its active schemas reference: missing rows come
                // back as coverage-masked partial rows (every column an
                // active schema's fill reads is covered, and covered
                // positions are bitwise identical to a full sweep's).
                let fetched = match problem.active_set() {
                    None => store.score_rows(&missing),
                    Some(active) => {
                        let mut cols: Vec<usize> = active
                            .ids()
                            .iter()
                            .flat_map(|&sid| store.schema_labels(sid))
                            .map(|lid| lid.index())
                            .collect();
                        cols.sort_unstable();
                        cols.dedup();
                        store.score_rows_subset(&missing, &cols)
                    }
                };
                let mut fetched = fetched.into_iter();
                for row in rows.iter_mut().filter(|row| row.is_none()) {
                    *row = fetched.next();
                }
            }
            let rows: Vec<Arc<Vec<f64>>> = rows
                .into_iter()
                .map(|row| row.expect("every name resolved"))
                .collect();
            // Fill each schema's k × n table from the store rows, mapping
            // arena columns to label ids through the store's column maps.
            let fill_table = |sid: SchemaId, schema: &Schema| {
                let labels = store.schema_labels(sid);
                let n = schema.len();
                let mut costs = Vec::with_capacity(k * n);
                for level in 0..k {
                    let row = rows[level_rows[level]].as_slice();
                    let p_ty = personal_types[level];
                    for (t, target) in schema.node_ids().enumerate() {
                        let nd = row[labels[t].index()];
                        let td = 1.0 - p_ty.compatibility(schema.node(target).ty);
                        costs.push(objective.blend(nd, td));
                    }
                }
                SchemaTable::from_costs(k, n, costs)
            };
            match problem.active_set() {
                None => (
                    repo.iter()
                        .map(|(sid, schema)| fill_table(sid, schema))
                        .collect(),
                    None,
                    0,
                ),
                Some(active) => {
                    let mut map = vec![u32::MAX; repo.len()];
                    let mut tables = Vec::with_capacity(active.ids().len());
                    for &sid in active.ids() {
                        map[sid.index()] = tables.len() as u32;
                        tables.push(fill_table(sid, repo.schema(sid)));
                    }
                    (tables, Some(map), 0)
                }
            }
        };
        if span.is_active() {
            span.attr("k", k);
            span.attr("distinct_labels", names.len());
            span.attr("pinned_rows", names.len() - missing.len());
            span.attr("missing_rows", missing.len());
            span.attr("restricted", problem.active_set().is_some());
            span.attr("schemas_filled", tables.len());
            span.attr("fill_windows", fill_windows);
            smx_obs::registry()
                .histogram("cost_matrix.build_ns")
                .observe_ns(span.elapsed_ns());
        }
        let denom =
            k as f64 + problem.personal_edges() as f64 * objective.config().structure_weight;
        CostMatrix {
            objective: objective.clone(),
            denom,
            tables,
            sparse,
        }
    }

    /// The objective the matrix was built for.
    pub fn objective(&self) -> &ObjectiveFunction {
        &self.objective
    }

    /// The objective's weights (used to detect config mismatches).
    pub fn config(&self) -> ObjectiveConfig {
        self.objective.config()
    }

    /// The shared normalisation denominator `k + e · structure_weight`.
    #[inline]
    pub fn denom(&self) -> f64 {
        self.denom
    }

    /// The table of `sid`.
    #[inline]
    pub fn table(&self, sid: SchemaId) -> &SchemaTable {
        match &self.sparse {
            None => &self.tables[sid.index()],
            Some(map) => match map[sid.index()] {
                u32::MAX => &EMPTY_TABLE,
                slot => &self.tables[slot as usize],
            },
        }
    }

    /// Δ of a full assignment, read from the matrix, with edges priced
    /// from the repository's node shapes
    /// ([`ObjectiveFunction::shape_edge_penalty`]). Term order replicates
    /// [`ObjectiveFunction::mapping_cost`] exactly, so the result is
    /// bitwise identical to direct evaluation.
    pub fn mapping_cost(
        &self,
        problem: &MatchProblem,
        schema_id: SchemaId,
        targets: &[NodeId],
    ) -> f64 {
        let personal = problem.personal();
        let shapes = problem.repository().store().schema_shapes(schema_id);
        let table = self.table(schema_id);
        debug_assert_eq!(targets.len(), problem.personal_size());
        let structure_weight = self.objective.config().structure_weight;
        let mut total = 0.0;
        for (i, &pid) in problem.personal_order().iter().enumerate() {
            total += table.cost(i, targets[i].index());
            if let Some(parent) = personal.node(pid).parent {
                let parent_target = targets[parent.index()];
                total += structure_weight
                    * self.objective.shape_edge_penalty(
                        shapes[parent_target.index()],
                        shapes[targets[i].index()],
                    );
            }
        }
        total / self.denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_repo::Repository;
    use smx_xml::{PrimitiveType, SchemaBuilder};

    fn fixture() -> MatchProblem {
        let personal = SchemaBuilder::new("p")
            .root("book")
            .leaf("title", PrimitiveType::String)
            .leaf("year", PrimitiveType::Integer)
            .build();
        let mut repo = Repository::new();
        repo.add(
            SchemaBuilder::new("bib")
                .root("bibliography")
                .child("book", |b| {
                    b.leaf("title", PrimitiveType::String)
                        .leaf("year", PrimitiveType::Integer)
                        .leaf("price", PrimitiveType::Decimal)
                })
                .build(),
        );
        repo.add(
            SchemaBuilder::new("shop")
                .root("store")
                .child("book", |o| o.leaf("title", PrimitiveType::String))
                .build(),
        );
        MatchProblem::new(personal, repo).unwrap()
    }

    #[test]
    fn matrix_cells_match_direct_node_cost_bitwise() {
        let problem = fixture();
        let objective = ObjectiveFunction::default();
        let matrix = CostMatrix::build(&problem, &objective);
        let personal = problem.personal();
        for (sid, schema) in problem.repository().iter() {
            let table = matrix.table(sid);
            assert_eq!(table.node_count(), schema.len());
            for (level, &pid) in problem.personal_order().iter().enumerate() {
                for t in schema.node_ids() {
                    let direct = objective.node_cost(personal, pid, schema, t);
                    let precomputed = table.cost(level, t.index());
                    assert_eq!(
                        precomputed.to_bits(),
                        direct.to_bits(),
                        "{sid} level {level} target {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn windowed_fill_matches_one_shot_bitwise() {
        // A vocabulary (6 distinct personal labels) above the row cap
        // (2) takes the windowed fill path; an unbounded store takes
        // the one-shot path. Same schemas, same objective — every cell
        // must be bitwise identical, and the bounded store must end the
        // build holding no more rows than its cap.
        let personal = SchemaBuilder::new("p")
            .root("catalogue")
            .leaf("title", PrimitiveType::String)
            .leaf("author", PrimitiveType::String)
            .leaf("year", PrimitiveType::Integer)
            .leaf("price", PrimitiveType::Decimal)
            .leaf("isbn", PrimitiveType::String)
            .build();
        let schemas = || {
            [
                SchemaBuilder::new("bib")
                    .root("bibliography")
                    .child("book", |b| {
                        b.leaf("bookTitle", PrimitiveType::String)
                            .leaf("authorName", PrimitiveType::String)
                            .leaf("publicationYear", PrimitiveType::Integer)
                    })
                    .build(),
                SchemaBuilder::new("shop")
                    .root("store")
                    .child("item", |o| {
                        o.leaf("title", PrimitiveType::String)
                            .leaf("cost", PrimitiveType::Decimal)
                    })
                    .build(),
            ]
        };
        let cap = 2;
        let mut unbounded = Repository::new();
        let mut bounded = Repository::with_store_config(smx_repo::StoreConfig {
            max_cached_rows: Some(cap),
            batch_threads: 1,
            ..smx_repo::StoreConfig::default()
        });
        for s in schemas() {
            unbounded.add(s);
        }
        for s in schemas() {
            bounded.add(s);
        }
        let objective = ObjectiveFunction::default();
        let one_shot = CostMatrix::build(
            &MatchProblem::new(personal.clone(), unbounded).unwrap(),
            &objective,
        );
        let bounded_problem = MatchProblem::new(personal, bounded).unwrap();
        assert!(bounded_problem.distinct_personal_labels().len() > cap);
        let windowed = CostMatrix::build(&bounded_problem, &objective);
        for (sid, schema) in bounded_problem.repository().iter() {
            let (a, b) = (one_shot.table(sid), windowed.table(sid));
            assert_eq!(a.node_count(), b.node_count());
            for level in 0..bounded_problem.personal_size() {
                for t in 0..schema.len() {
                    assert_eq!(
                        a.cost(level, t).to_bits(),
                        b.cost(level, t).to_bits(),
                        "{sid} level {level} target {t}"
                    );
                }
                assert_eq!(a.row_min(level).to_bits(), b.row_min(level).to_bits());
            }
            assert_eq!(
                a.suffix_min()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                b.suffix_min()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
        }
        assert!(bounded_problem.repository().store().cached_rows() <= cap);
    }

    #[test]
    fn row_min_matches_min_node_cost_bitwise() {
        let problem = fixture();
        let objective = ObjectiveFunction::default();
        let matrix = CostMatrix::build(&problem, &objective);
        let personal = problem.personal();
        for (sid, schema) in problem.repository().iter() {
            let table = matrix.table(sid);
            for (level, &pid) in problem.personal_order().iter().enumerate() {
                let direct = objective.min_node_cost(personal, pid, schema);
                assert_eq!(table.row_min(level).to_bits(), direct.to_bits());
            }
        }
    }

    #[test]
    fn suffix_min_is_admissible() {
        let problem = fixture();
        let matrix = CostMatrix::build(&problem, &ObjectiveFunction::default());
        for (sid, schema) in problem.repository().iter() {
            let table = matrix.table(sid);
            let k = problem.personal_size();
            assert_eq!(table.suffix_min().len(), k + 1);
            assert_eq!(table.suffix_min()[k], 0.0);
            for level in 0..k {
                // Suffix is the sum of minima, hence ≤ any concrete
                // completion's node costs.
                let any_completion: f64 = (level..k).map(|l| table.cost(l, l % schema.len())).sum();
                assert!(table.suffix_min()[level] <= any_completion + 1e-12);
                assert!(table.suffix_min()[level] >= table.suffix_min()[level + 1]);
            }
        }
    }

    #[test]
    fn mapping_cost_matches_objective_bitwise() {
        let problem = fixture();
        let objective = ObjectiveFunction::default();
        let matrix = CostMatrix::build(&problem, &objective);
        let sid = SchemaId(0);
        for targets in [
            [NodeId(1), NodeId(2), NodeId(3)],
            [NodeId(4), NodeId(0), NodeId(1)],
            [NodeId(0), NodeId(4), NodeId(2)],
        ] {
            let direct = objective.mapping_cost(&problem, sid, &targets);
            let precomputed = matrix.mapping_cost(&problem, sid, &targets);
            assert_eq!(precomputed.to_bits(), direct.to_bits(), "{targets:?}");
        }
    }

    #[test]
    fn direct_table_equals_memoised_table() {
        let problem = fixture();
        let objective = ObjectiveFunction::default();
        let matrix = CostMatrix::build(&problem, &objective);
        for (sid, schema) in problem.repository().iter() {
            let direct = SchemaTable::compute_direct(&problem, schema, &objective);
            let fast = matrix.table(sid);
            assert_eq!(direct.costs.len(), fast.costs.len());
            for (a, b) in direct.costs.iter().zip(&fast.costs) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in direct.suffix_min.iter().zip(&fast.suffix_min) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
