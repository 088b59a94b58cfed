//! Candidate generation: the inverted-index filter tier in front of the
//! matchers.
//!
//! An exhaustive run scores every repository schema; for a large
//! repository most of them provably cannot contain a single answer at
//! the query's threshold. [`CandidateGenerator`] proves that *before*
//! any exact scoring happens, from the store's
//! [`FilterIndex`](smx_repo::FilterIndex) alone:
//!
//! 1. per distinct personal label, an **admissible upper bound** on the
//!    name similarity against every repository label
//!    ([`LabelStore::similarity_upper_bounds`](smx_repo::LabelStore::similarity_upper_bounds))
//!    is turned into a lower bound on the node cost —
//!    `cost ≥ blend(max(0, 1 − sim_ub), 0)`, since the type distance
//!    and every edge penalty are non-negative and
//!    [`ObjectiveFunction::blend`] is monotone in both arguments. The
//!    bounds come from the store's memoised **bound row** of the label
//!    ([`LabelStore::bound_row`](smx_repo::LabelStore::bound_row)): the
//!    cheap pass runs once per label and store, full-precision
//!    refinements are kept once computed, so a repeated personal label
//!    costs no filter work — only the request-specific walk below;
//! 2. per repository schema, summing each personal level's *minimum*
//!    node-cost lower bound gives a lower bound on **every** mapping's
//!    un-normalised cost. If it exceeds the threshold budget
//!    `δ_max · denom`, the schema is **certified empty** — pruning it
//!    loses no answer, by construction;
//! 3. schemas that cannot be certified empty are either kept *active*
//!    (scored exactly, so their answers are bitwise identical to the
//!    exhaustive oracle's) or — under an explicit
//!    [`CandidateConfig::budget`] — pruned with an admissible **cap**
//!    on how many answers they could have contained: per level, the
//!    count of schema nodes whose cost lower bound fits the budget
//!    left by the other levels' minima, multiplied across levels.
//!
//! The caps are what makes non-exhaustiveness *certifiable*: S1's
//! answer set on the pruned schemas has at most `Σ caps` members, so
//! `|A| / (|A| + Σ caps)` lower-bounds both the answer-size ratio
//! `Â = |A_S2|/|A_S1|` and the recall of the candidate run relative to
//! the exhaustive one — the paper's bounds machinery (`smx-core`) runs
//! on exactly that ratio. With the default auto budget only
//! certified-empty schemas are pruned, the cap sum is zero, and the
//! certificate collapses to recall 1 at full speedup.
//!
//! Per-request work is proportional to what the walk touches, not to
//! the repository: only touched schemas get phase-1 lanes and phase-2
//! checks (when the all-clamp total certifies untouched ones, the usual
//! case — the rest cost one slot check each), the survivors' vocabulary
//! is promoted once per label, and pair counts sum over the active set.
//! Memoised bounds never make a result depend on earlier requests: which
//! entries a request reads at full precision follows from that
//! request's clamp alone, so every active set, cap, and certificate is
//! bit-identical on a cold and a warm store
//! (`tests/candidate_differential.rs` gates this).

use crate::objective::ObjectiveFunction;
use crate::problem::MatchProblem;
use smx_repo::{BoundRow, LabelId, SchemaId, BOUND_EPS};
use std::collections::HashMap;
use std::sync::Arc;

/// Float-order slack added to the threshold budget before any prune
/// decision: a schema is only certified empty when its cost lower bound
/// clears the budget by more than the worst accumulated rounding error
/// of a real scoring run. Deliberately much wider than the `1e-12`
/// comparison slack the matchers use.
pub const CERT_SLACK: f64 = 1e-6;

/// How the generator chooses which non-certified schemas stay active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CandidateConfig {
    /// `None` (auto): keep **every** schema that cannot be certified
    /// empty — certified recall 1.0, the headline mode. `Some(b)`: keep
    /// the `b` most promising schemas (smallest cost lower bound) and
    /// cap the rest; `Some(0)` prunes everything and certifies only
    /// what the caps allow.
    pub budget: Option<usize>,
}

/// The filter tier: turns a [`MatchProblem`] and a threshold into a
/// [`CandidateSet`].
#[derive(Debug, Clone, Default)]
pub struct CandidateGenerator {
    objective: ObjectiveFunction,
    config: CandidateConfig,
}

/// Per-schema verdict, kept internal to generation.
struct Verdict {
    sid: SchemaId,
    /// Lower bound on any mapping's un-normalised cost in this schema.
    total_lb: f64,
    /// Admissible cap on the schema's answer count if pruned.
    cap: f64,
}

/// Admissible node-cost lower bound from a similarity upper bound:
/// `blend(nd, td)` is monotone and `td ≥ 0`, so this lower-bounds the
/// true node cost; `BOUND_EPS` absorbs the blend's own rounding.
fn to_lb(objective: &ObjectiveFunction, ub: f64) -> f64 {
    let nd_lb = (1.0 - ub).max(0.0);
    (objective.blend(nd_lb, 0.0) - BOUND_EPS).max(0.0)
}

/// Phase-1 slot of a schema the walk never touched: every lane of it
/// sits at the clamp.
const UNTOUCHED: u32 = u32::MAX;

/// The two-phase inverted sweep behind [`CandidateGenerator::generate`].
///
/// Each lane — one per distinct personal label — reads its similarity
/// bounds from the store's memoised bound row
/// ([`LabelStore::bound_row`](smx_repo::LabelStore::bound_row)): the
/// cheap bound of every label, plus full-precision refinements the row
/// keeps once any request has asked for them. Which entries a request
/// *uses* at full precision is decided by that request alone (below),
/// so a warm memo only skips recomputation and never changes a result.
///
/// Phase 1 (coarse): one slot per (schema, lane), initialised to a
/// `clamp` and lowered by walking the label→schema postings of only the
/// labels whose cheap cost bound falls *below* the clamp — those are
/// promoted to full precision first. Clamping any slot at `c ≤` its
/// true per-lane minimum keeps the slot an under-estimate, so a schema
/// whose clamped total already exceeds the budget is certified empty
/// exactly as the full scan would certify it. The clamp is chosen just
/// above `budget / k`, the smallest value at which an all-clamped
/// schema still certifies — that way the walk touches only near-match
/// labels (strong similarity upper bounds), not every label that merely
/// shares a character with the query. Lanes are kept only for the
/// schemas the walk touches; every other schema's total is the
/// all-clamp total, and when that already certifies (the usual case)
/// phase 2 skips untouched schemas after one check of their slot.
///
/// Phase 2 (per-schema, via [`LaneSweep::fill_minima`] and
/// [`LaneSweep::cap`]): the schemas phase 1 cannot certify get
/// per-level minima recomputed from the bound lanes as they stand —
/// cheap entries where the clamp ruled the label out, full-precision
/// entries where it could not. Every entry is an admissible cost lower
/// bound either way, so minima, totals and caps built from them certify
/// conservatively; callers that *rank* or *cap* schemas first promote
/// the surviving schemas' vocabulary to full precision, once per label
/// ([`LaneSweep::promote`]) — loose caps would make a
/// certificate admissible but vacuous. Bounds are stored label-major,
/// so each of these is one pass over the schema's contiguous label
/// column (the store's column arena), reading every lane of a label
/// from one place.
struct LaneSweep<'a> {
    objective: &'a ObjectiveFunction,
    /// One memoised bound row per lane.
    rows: Vec<BoundRow<'a>>,
    /// Each label's node-cost lower bound per lane, as this request
    /// uses it — from the cheap bound, or from the full-precision one
    /// once promoted — label-major: `bounds[lid * n_lanes + lane]`.
    bounds: Vec<f64>,
    level_lane: Vec<usize>,
    lane_mult: Vec<f64>,
    clamp: f64,
    /// `slot[sid]` indexes the schema's phase-1 lanes in `lanelb`, in
    /// first-touch order, or is [`UNTOUCHED`].
    slot: Vec<u32>,
    /// `n_lanes` clamped per-lane minima per touched schema.
    lanelb: Vec<f64>,
    /// Coarse total of an untouched schema: every lane at the clamp.
    clamped_total: f64,
    n_lanes: usize,
    /// Un-normalised threshold budget `δ_max · denom + 1e-12 + CERT_SLACK`.
    budget: f64,
    /// (lane, label) entries used at full precision — the walk's work
    /// counter, surfaced through the `candidates.*` spans. Memoised
    /// refinements count too: the figure depends on the request, not on
    /// the memo's history.
    refined_count: usize,
    /// Lanes whose bound row came from the store's memo.
    memo_hits: usize,
    /// Labels [`LaneSweep::promote`] has promoted in every lane.
    promoted: Vec<bool>,
    /// Per lane, the minimum over the schema [`LaneSweep::fill_minima`]
    /// last filled.
    lane_min: Vec<f64>,
    /// Per lane, scratch for [`LaneSweep::cap`]: the room a node's
    /// bound must fit...
    lane_room: Vec<f64>,
    /// ...and how many of the schema's nodes fit it.
    lane_fits: Vec<u32>,
}

impl<'a> LaneSweep<'a> {
    /// Run phase 1 for `problem` at `delta_max`.
    fn run(
        objective: &'a ObjectiveFunction,
        problem: &'a MatchProblem,
        delta_max: f64,
    ) -> LaneSweep<'a> {
        let repo = problem.repository();
        let store = repo.store();
        let k = problem.personal_size();
        let denom =
            k as f64 + problem.personal_edges() as f64 * objective.config().structure_weight;
        // The same un-normalised budget the exhaustive matcher prunes
        // against, widened by CERT_SLACK so certification is strictly
        // more conservative than search.
        let budget = delta_max * denom + 1e-12 + CERT_SLACK;

        let personal = problem.personal();
        let names = problem.distinct_personal_labels();
        let rows: Vec<BoundRow<'a>> = names.iter().map(|name| store.bound_row(name)).collect();
        let memo_hits = rows.iter().filter(|row| row.memo_hit()).count();
        let row_of: HashMap<&str, usize> = names
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, i))
            .collect();
        let level_lane: Vec<usize> = problem
            .personal_order()
            .iter()
            .map(|&pid| row_of[personal.node(pid).name.as_str()])
            .collect();
        // Levels sharing a personal label share a lane and multiply that
        // lane's coarse minimum.
        let mut lane_mult = vec![0.0f64; names.len()];
        for &d in &level_lane {
            lane_mult[d] += 1.0;
        }

        let n_lanes = rows.len();
        let floor = (objective.blend(1.0 - BOUND_EPS, 0.0) - BOUND_EPS).max(0.0);
        let clamp = floor.min(1.05 * budget / k as f64);
        let mut bounds = vec![0.0f64; store.len() * n_lanes];
        let mut slot = vec![UNTOUCHED; repo.len()];
        let mut n_touched = 0u32;
        let mut lanelb: Vec<f64> = Vec::new();
        let mut refined_count = 0usize;
        for (d, row) in rows.iter().enumerate() {
            for (idx, &ub) in row.cheap().iter().enumerate() {
                let cell = &mut bounds[idx * n_lanes + d];
                *cell = to_lb(objective, ub);
                if *cell >= clamp {
                    continue;
                }
                // The cheap bound says "maybe strong"; use the full
                // precision before letting it lower any slot.
                let lid = LabelId(idx as u32);
                let lb = to_lb(objective, row.full(lid));
                *cell = lb;
                refined_count += 1;
                if lb >= clamp {
                    continue;
                }
                for &sid in store.schemas_with_label(lid) {
                    let s = &mut slot[sid.index()];
                    if *s == UNTOUCHED {
                        *s = n_touched;
                        n_touched += 1;
                        lanelb.resize(lanelb.len() + n_lanes, clamp);
                    }
                    let lane = &mut lanelb[*s as usize * n_lanes + d];
                    if lb < *lane {
                        *lane = lb;
                    }
                }
            }
        }

        let clamped_total = lane_mult.iter().map(|m| clamp * m).sum();
        LaneSweep {
            objective,
            rows,
            bounds,
            level_lane,
            lane_mult,
            clamp,
            slot,
            lanelb,
            clamped_total,
            n_lanes,
            budget,
            refined_count,
            memo_hits,
            promoted: vec![false; store.len()],
            lane_min: vec![0.0; n_lanes],
            lane_room: vec![0.0; n_lanes],
            lane_fits: vec![0; n_lanes],
        }
    }

    /// Schema `sid`'s clamped phase-1 lanes, or `None` when the walk
    /// never touched it (every lane at the clamp).
    fn lanes(&self, sid: SchemaId) -> Option<&[f64]> {
        match self.slot[sid.index()] {
            UNTOUCHED => None,
            s => Some(&self.lanelb[s as usize * self.n_lanes..][..self.n_lanes]),
        }
    }

    /// Coarse per-schema total from the clamped lanes: each lane's
    /// clamped minimum times the number of levels sharing that lane.
    fn coarse(&self, sid: SchemaId) -> f64 {
        match self.lanes(sid) {
            None => self.clamped_total,
            Some(lanes) => lanes
                .iter()
                .zip(&self.lane_mult)
                .map(|(lb, m)| lb * m)
                .sum(),
        }
    }

    /// The schemas phase 2 must examine, ascending: the ones able to
    /// host an injective assignment whose coarse total fits the budget.
    /// Only touched schemas qualify unless an all-clamped schema would
    /// fit too (a loose clamp). Every other schema is certified empty.
    /// Ascending order walks the store's column arena front to back; no
    /// result depends on the order.
    fn coarse_survivors(&self, problem: &MatchProblem) -> Vec<SchemaId> {
        let repo = problem.repository();
        let store = repo.store();
        let k = problem.personal_size();
        let all = self.clamped_total <= self.budget;
        repo.schema_ids()
            .filter(|&sid| {
                (all || self.slot[sid.index()] != UNTOUCHED)
                    && store.schema_labels(sid).len() >= k
                    && self.coarse(sid) <= self.budget
            })
            .collect()
    }

    /// Promote label `lid`'s entries to full precision in every lane,
    /// once per request, so rankings and caps built from the lanes are
    /// as tight as the filter index allows. Label-major: the survivors'
    /// shared vocabulary is never revisited per schema.
    fn promote(&mut self, lid: LabelId) {
        if std::mem::replace(&mut self.promoted[lid.index()], true) {
            return;
        }
        let lanes = &mut self.bounds[lid.index() * self.n_lanes..][..self.n_lanes];
        for (row, lb) in self.rows.iter().zip(lanes) {
            // Entries whose cheap bound fell below the clamp were
            // promoted by the walk already.
            if to_lb(self.objective, row.cheap()[lid.index()]) >= self.clamp {
                *lb = to_lb(self.objective, row.full(lid));
                self.refined_count += 1;
            }
        }
    }

    /// Per-lane minima over a schema's `labels` (kept in `lane_min`),
    /// from the bounds as refined so far — after promoting each label
    /// first when `promote` is set — in one pass over the schema's label
    /// column. Returns the schema's mapping-cost lower bound: each
    /// level's lane minimum, summed in level order.
    fn fill_minima(&mut self, labels: &[LabelId], promote: bool) -> f64 {
        self.lane_min.fill(f64::INFINITY);
        for &lid in labels {
            if promote {
                self.promote(lid);
            }
            let lanes = &self.bounds[lid.index() * self.n_lanes..][..self.n_lanes];
            for (min, &lb) in self.lane_min.iter_mut().zip(lanes) {
                *min = min.min(lb);
            }
        }
        self.level_lane.iter().map(|&d| self.lane_min[d]).sum()
    }

    /// Whether [`LaneSweep::cap`] is non-zero for the schema
    /// [`LaneSweep::fill_minima`] last filled: every level has a node
    /// fitting the budget the other levels' minima leave it — exactly
    /// when the level's own minimum fits, which takes `O(lanes)`
    /// instead of a pass over the schema's labels.
    fn every_level_fits(&self, total_lb: f64) -> bool {
        self.lane_min
            .iter()
            .all(|&lb| lb <= self.budget - (total_lb - lb))
    }

    /// Admissible answer cap of the schema [`LaneSweep::fill_minima`]
    /// last filled: a mapping at each level must use a node whose cost
    /// lower bound fits the budget left after every other level
    /// contributes at least its minimum. Levels sharing a lane share its
    /// minimum, hence that room and its fit count, so one pass over the
    /// labels counts every lane's fits.
    fn cap(&mut self, labels: &[LabelId], total_lb: f64) -> f64 {
        for (room, &lb) in self.lane_room.iter_mut().zip(&self.lane_min) {
            *room = self.budget - (total_lb - lb);
        }
        self.lane_fits.fill(0);
        for &lid in labels {
            let lanes = &self.bounds[lid.index() * self.n_lanes..][..self.n_lanes];
            for ((fits, &lb), &room) in self.lane_fits.iter_mut().zip(lanes).zip(&self.lane_room) {
                *fits += u32::from(lb <= room);
            }
        }
        self.level_lane
            .iter()
            .fold(1.0f64, |cap, &d| cap * self.lane_fits[d] as f64)
    }
}

impl CandidateGenerator {
    /// Build with the shared objective (its weights shape the cost
    /// lower bounds) and a selection config.
    pub fn new(objective: ObjectiveFunction, config: CandidateConfig) -> Self {
        CandidateGenerator { objective, config }
    }

    /// Auto-budget generator: prunes only certified-empty schemas, so
    /// the resulting certificate is always recall 1.0.
    pub fn auto(objective: ObjectiveFunction) -> Self {
        CandidateGenerator::new(objective, CandidateConfig::default())
    }

    /// The selection config.
    pub fn config(&self) -> CandidateConfig {
        self.config
    }

    /// The shared objective.
    pub fn objective(&self) -> &ObjectiveFunction {
        &self.objective
    }

    /// Generate the candidate set for `problem` at threshold
    /// `delta_max`: which schemas a restricted run must score, and an
    /// admissible cap on the answers the pruned ones could hold.
    pub fn generate(&self, problem: &MatchProblem, delta_max: f64) -> CandidateSet {
        let mut outer = smx_obs::span("candidates.generate");
        let repo = problem.repository();
        let store = repo.store();
        let mut sweep = {
            let mut phase1 = smx_obs::span("candidates.phase1");
            let sweep = LaneSweep::run(&self.objective, problem, delta_max);
            phase1.attr("bounds_refined", sweep.refined_count);
            phase1.attr("memo_hits", sweep.memo_hits);
            sweep
        };
        let budget = sweep.budget;

        let mut phase2 = smx_obs::span("candidates.phase2");
        // Phase 2: per-level minima over each coarse survivor's labels,
        // from the lanes as refined so far — admissible lower bounds
        // whether or not the walk promoted them. In auto mode (every
        // survivor scored, caps unused) no further refinement is done —
        // that keeps the generator off the expensive token-set bound for
        // the survivors' vocabularies. An explicit budget is different:
        // it ranks survivors by `total_lb` and turns the pruned ones into
        // answer caps, so there the survivors' vocabulary is promoted to
        // full precision first.
        let survivors = sweep.coarse_survivors(problem);
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(survivors.len());
        for sid in survivors {
            let labels = store.schema_labels(sid);
            let total_lb = sweep.fill_minima(labels, self.config.budget.is_some());
            if total_lb > budget || !sweep.every_level_fits(total_lb) {
                continue;
            }
            // Auto mode keeps every verdict, so it never needs a cap.
            let cap = match self.config.budget {
                Some(_) => sweep.cap(labels, total_lb),
                None => 0.0,
            };
            verdicts.push(Verdict { sid, total_lb, cap });
        }
        // Everything else — too small, coarse-certified, or with no
        // level that fits — is certified empty.
        let cert_empty = repo.len() - verdicts.len();
        phase2.attr("cert_empty", cert_empty);
        phase2.attr("survivors", verdicts.len());
        phase2.attr("bounds_refined_total", sweep.refined_count);
        drop(phase2);

        // Selection: auto keeps every survivor; an explicit budget keeps
        // the most promising (smallest total_lb, ties by id) and caps
        // the rest. Ids are unique, so the order is total and an
        // unstable sort is deterministic.
        let keep = match self.config.budget {
            None => verdicts.len(),
            Some(b) => b.min(verdicts.len()),
        };
        if keep < verdicts.len() {
            // Bounds are finite and non-negative, so their bit patterns
            // order exactly like the values.
            verdicts.sort_unstable_by_key(|v| (v.total_lb.to_bits(), v.sid));
        }
        let mut active: Vec<SchemaId> = verdicts[..keep].iter().map(|v| v.sid).collect();
        active.sort_unstable_by_key(|sid| sid.index());
        // Explicit fold from +0.0: `Sum<f64>` starts at -0.0 (the float
        // additive identity), which would print an uncapped run's
        // "missed ≤ -0.0" and trip sign-sensitive comparisons.
        let caps_sum: f64 = verdicts[keep..].iter().fold(0.0, |acc, v| acc + v.cap);

        let active_mask: Vec<bool> = {
            let mut mask = vec![false; repo.len()];
            for sid in &active {
                mask[sid.index()] = true;
            }
            mask
        };
        let (pruned_pairs, scored_pairs) = pair_counts(problem, &active);
        if outer.is_active() {
            outer.attr("schemas", repo.len());
            outer.attr("active", active.len());
            outer.attr("cert_empty", cert_empty);
            outer.attr("caps_sum", caps_sum);
            outer.attr("pruned_pairs", pruned_pairs);
            outer.attr("scored_pairs", scored_pairs);
            smx_obs::registry()
                .histogram("candidates.generate_ns")
                .observe_ns(outer.elapsed_ns());
        }

        CandidateSet {
            active: Arc::new(ActiveSet {
                ids: active,
                mask: active_mask,
            }),
            total_schemas: repo.len(),
            cert_empty,
            caps_sum,
            pruned_pairs,
            scored_pairs,
            delta_max,
        }
    }
}

/// `(pruned, scored)` cost-pair counts for the active schemas — work
/// proportional to the active set, not the repository.
fn pair_counts(problem: &MatchProblem, active: &[SchemaId]) -> (u64, u64) {
    let k = problem.personal_size() as u64;
    let repo = problem.repository();
    let scored: u64 = active
        .iter()
        .map(|&sid| k * repo.schema(sid).len() as u64)
        .sum();
    (k * repo.total_elements() as u64 - scored, scored)
}

/// The repository schemas a candidate-restricted problem is allowed to
/// score, as both a sorted id list and a dense membership mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet {
    /// Active schema ids, ascending.
    ids: Vec<SchemaId>,
    /// `mask[sid.index()]` — dense membership test.
    mask: Vec<bool>,
}

impl ActiveSet {
    /// The active schema ids, ascending.
    pub fn ids(&self) -> &[SchemaId] {
        &self.ids
    }

    /// Whether `sid` may be scored.
    pub fn contains(&self, sid: SchemaId) -> bool {
        self.mask.get(sid.index()).copied().unwrap_or(false)
    }

    /// Number of active schemas.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing is active.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether every repository schema is active.
    pub fn covers_all(&self) -> bool {
        self.ids.len() == self.mask.len()
    }
}

/// The generator's output: the active subset plus everything a recall
/// certificate needs about what was pruned.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    active: Arc<ActiveSet>,
    total_schemas: usize,
    cert_empty: usize,
    caps_sum: f64,
    pruned_pairs: u64,
    scored_pairs: u64,
    delta_max: f64,
}

impl CandidateSet {
    /// The active subset (shared with restricted problems).
    pub fn active(&self) -> &Arc<ActiveSet> {
        &self.active
    }

    /// Number of active schemas.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Number of repository schemas.
    pub fn total_schemas(&self) -> usize {
        self.total_schemas
    }

    /// Schemas certified to contain no answer at the threshold
    /// (including those too small for an injective assignment).
    pub fn cert_empty_count(&self) -> usize {
        self.cert_empty
    }

    /// Whether every schema stayed active (pruning found nothing to
    /// cut — a restriction-free run).
    pub fn covers_all(&self) -> bool {
        self.active.covers_all()
    }

    /// Sum of the admissible answer caps over the pruned,
    /// non-certified schemas; `0.0` in auto-budget mode.
    pub fn caps_sum(&self) -> f64 {
        self.caps_sum
    }

    /// `(personal node, schema node)` cost pairs the restricted matrix
    /// fill never scores.
    pub fn pruned_pairs(&self) -> u64 {
        self.pruned_pairs
    }

    /// Cost pairs the restricted fill does score.
    pub fn scored_pairs(&self) -> u64 {
        self.scored_pairs
    }

    /// The threshold this set was generated for. A restricted run must
    /// use the same `delta_max` for the certificate to be valid.
    pub fn delta_max(&self) -> f64 {
        self.delta_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certified::RecallCertificate;
    use crate::exhaustive::ExhaustiveMatcher;
    use crate::mapping::MappingRegistry;
    use crate::matcher::Matcher;
    use smx_repo::Repository;
    use smx_synth::{Scenario, ScenarioConfig};
    use smx_xml::{PrimitiveType, SchemaBuilder};

    fn scenario_problem() -> MatchProblem {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 6,
            noise_schemas: 6,
            personal_nodes: 4,
            host_nodes: 8,
            perturbation_strength: 0.7,
            ..Default::default()
        });
        MatchProblem::new(sc.personal, sc.repository).unwrap()
    }

    #[test]
    fn certified_empty_schemas_really_are_empty() {
        let problem = scenario_problem();
        let delta_max = 0.25;
        let candidates =
            CandidateGenerator::auto(ObjectiveFunction::default()).generate(&problem, delta_max);
        assert_eq!(candidates.caps_sum(), 0.0);
        assert_eq!(
            RecallCertificate::new(&candidates, 0).certified_recall(),
            1.0
        );
        // Every schema the generator certified empty contributes zero
        // answers to the unrestricted exhaustive run.
        let registry = MappingRegistry::new();
        let oracle = ExhaustiveMatcher::default().run(&problem, delta_max, &registry);
        for answer in oracle.answers() {
            let mapping = registry.resolve(answer.id).unwrap();
            assert!(
                candidates.active().contains(mapping.schema),
                "answer in certified-empty schema {}",
                mapping.schema
            );
        }
        assert_eq!(
            candidates.active_count() + candidates.cert_empty_count(),
            candidates.total_schemas()
        );
    }

    #[test]
    fn budget_zero_prunes_everything_and_budget_large_keeps_all_survivors() {
        let problem = scenario_problem();
        let objective = ObjectiveFunction::default();
        let zero = CandidateGenerator::new(objective.clone(), CandidateConfig { budget: Some(0) })
            .generate(&problem, 0.3);
        assert_eq!(zero.active_count(), 0);
        assert!(RecallCertificate::new(&zero, 0).certified_recall() <= 1.0);
        let auto = CandidateGenerator::auto(objective.clone()).generate(&problem, 0.3);
        let big = CandidateGenerator::new(
            objective,
            CandidateConfig {
                budget: Some(problem.repository().len()),
            },
        )
        .generate(&problem, 0.3);
        assert_eq!(auto.active().ids(), big.active().ids());
        assert_eq!(big.caps_sum(), 0.0);
    }

    #[test]
    fn caps_shrink_certified_recall_monotonically_in_budget() {
        let problem = scenario_problem();
        let objective = ObjectiveFunction::default();
        let mut last = -1.0f64;
        for budget in 0..=problem.repository().len() {
            let set = CandidateGenerator::new(
                objective.clone(),
                CandidateConfig {
                    budget: Some(budget),
                },
            )
            .generate(&problem, 0.3);
            // More budget ⇒ fewer capped schemas ⇒ certificate (at a
            // fixed answer count) can only improve.
            let cert = RecallCertificate::new(&set, 5).certified_recall();
            assert!(cert >= last - 1e-12, "budget {budget}: {cert} < {last}");
            last = cert;
        }
    }

    #[test]
    fn small_schemas_are_certified_for_free() {
        let personal = SchemaBuilder::new("p")
            .root("order")
            .leaf("total", PrimitiveType::Decimal)
            .leaf("date", PrimitiveType::Date)
            .build();
        let mut repo = Repository::new();
        let mut tiny = smx_xml::Schema::new("tiny");
        tiny.add_root(smx_xml::Node::element("only")).unwrap();
        repo.add(tiny); // 1 node < k = 3
        repo.add(
            SchemaBuilder::new("shop")
                .root("order")
                .leaf("total", PrimitiveType::Decimal)
                .leaf("date", PrimitiveType::Date)
                .build(),
        );
        let problem = MatchProblem::new(personal, repo).unwrap();
        let set = CandidateGenerator::auto(ObjectiveFunction::default()).generate(&problem, 0.4);
        assert_eq!(set.cert_empty_count(), 1);
        assert!(set.active().contains(SchemaId(1)));
        assert!(!set.active().contains(SchemaId(0)));
        assert_eq!(set.pruned_pairs(), 3); // k × 1 node
    }

    #[test]
    fn generation_memoises_bound_rows_and_clear_rows_drops_them() {
        let problem = scenario_problem();
        let store = problem.repository().store();
        let lanes = problem.distinct_personal_labels().len() as u64;
        let generator = CandidateGenerator::new(
            ObjectiveFunction::default(),
            CandidateConfig { budget: Some(3) },
        );
        let cold = generator.generate(&problem, 0.3);
        let c = store.counters();
        assert_eq!((c.bound_row_builds, c.bound_row_hits), (lanes, 0));
        let warm = generator.generate(&problem, 0.3);
        let c = store.counters();
        assert_eq!((c.bound_row_builds, c.bound_row_hits), (lanes, lanes));
        // The first generation after clear_rows misses the memo again.
        store.clear_rows();
        let cleared = generator.generate(&problem, 0.3);
        let c = store.counters();
        assert_eq!((c.bound_row_builds, c.bound_row_hits), (2 * lanes, lanes));
        for set in [&warm, &cleared] {
            assert_eq!(set.active().ids(), cold.active().ids());
            assert_eq!(set.caps_sum().to_bits(), cold.caps_sum().to_bits());
        }
    }
}
