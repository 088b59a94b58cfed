//! Composable filter→refine matching pipelines with composed recall
//! certificates.
//!
//! The certified tier ([`certified`](crate::certified)) is one
//! hard-coded filter→refine pair. This module generalises it: a
//! [`Pipeline`] is a declarative sequence of [`Stage`]s, each of which
//! consumes the [`MatchProblem`] plus the active [`CandidateSet`] and
//! either *narrows* it — pruning schemas, charging the certificate for
//! what the pruning may have lost — or produces the *final*
//! [`AnswerSet`]. Because a pipeline itself implements [`Matcher`], a
//! composed `candidates → truncate → beam-filter → exhaustive` process
//! drops into [`BatchMatcher`](crate::BatchMatcher),
//! [`CertifiedMatcher`](crate::CertifiedMatcher), persistence and the
//! benches exactly like a monolithic matcher.
//!
//! # The stage algebra
//!
//! Every bound-based stage prunes against one shared, per-run
//! [`BoundsTable`](crate::candidates): each schema's certified-empty
//! flag, mapping-cost lower bound, and admissible answer cap, computed
//! once at full precision the first time any stage asks for it. That
//! sharing is what makes the stages *algebraic* — a stage's decision
//! for a schema depends only on the table and the schema itself, never
//! on where the stage sits in the pipeline, so rewrites preserve
//! answers bit for bit:
//!
//! * **predicate filters** ([`SizeFilter`], [`CandidateFilter`],
//!   [`BeamFilter`]) decide keep/drop per schema independently; they
//!   commute pairwise and are idempotent;
//! * **selection stages** ([`Truncate`]) keep a count-bounded subset of
//!   the survivors ranked by the table's cost lower bound; they do
//!   *not* commute with predicate filters (truncating first would
//!   waste slots on schemas a filter certifies empty) and act as
//!   rewrite barriers;
//! * **terminal stages** ([`RefineStage`]) run a full matcher on the
//!   surviving restriction and end the pipeline.
//!
//! [`Pipeline::normalize`] applies the safe rewrites — drop statically
//! no-op stages, fuse adjacent truncations, dedup repeated predicates,
//! absorb a size filter into a certified-empty filter, and reorder each
//! run of adjacent predicate filters cheapest-first. The
//! `pipeline_differential` / `pipeline_algebra` suites hold the module
//! to the algebra's word: a normalized pipeline must be
//! answer-bitwise-identical to its source, and composed certificates
//! must stay admissible for arbitrary stage orders and budgets.
//!
//! # Certificate composition
//!
//! Caps accumulate across stages: the final [`CandidateSet`] carries
//! `Σ caps` over everything any stage pruned uncertified, and the
//! composed certificate is the usual `|A| / (|A| + Σ caps)`. Per stage,
//! [`StageReport::factor`] exposes the telescoping attribution
//! `f_i = (|A| + Σ_{j>i} C_j) / (|A| + Σ_{j≥i} C_j)` whose product
//! reproduces the composed bound — the
//! [`smx_eval::FactorBreakdown`] form `smx-eval` reports.

use crate::beam::BeamMatcher;
use crate::candidates::{BoundsTable, CandidateSet};
use crate::certified::RecallCertificate;
use crate::mapping::MappingRegistry;
use crate::matcher::Matcher;
use crate::objective::ObjectiveFunction;
use crate::problem::MatchProblem;
use smx_eval::{AnswerSet, FactorBreakdown, StageInput};
use smx_repo::SchemaId;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Everything a stage may read during one pipeline run: the problem,
/// the threshold, the registry answers are interned in, the pipeline's
/// shared objective, and the lazily computed bounds table.
pub struct StageContext<'a> {
    problem: &'a MatchProblem,
    delta_max: f64,
    registry: &'a MappingRegistry,
    objective: &'a ObjectiveFunction,
    bounds: OnceLock<Arc<BoundsTable>>,
}

impl<'a> StageContext<'a> {
    fn new(
        problem: &'a MatchProblem,
        delta_max: f64,
        registry: &'a MappingRegistry,
        objective: &'a ObjectiveFunction,
    ) -> Self {
        StageContext {
            problem,
            delta_max,
            registry,
            objective,
            bounds: OnceLock::new(),
        }
    }

    /// The problem being matched.
    pub fn problem(&self) -> &'a MatchProblem {
        self.problem
    }

    /// The run's threshold δ_max.
    pub fn delta_max(&self) -> f64 {
        self.delta_max
    }

    /// The registry all answers must be interned in.
    pub fn registry(&self) -> &'a MappingRegistry {
        self.registry
    }

    /// The pipeline's shared objective Δ.
    pub fn objective(&self) -> &'a ObjectiveFunction {
        self.objective
    }

    /// The shared per-run bounds table, computed on first use.
    pub(crate) fn bounds(&self) -> &BoundsTable {
        self.bounds.get_or_init(|| {
            Arc::new(BoundsTable::compute(
                self.objective,
                self.problem,
                self.delta_max,
            ))
        })
    }
}

impl fmt::Debug for StageContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageContext")
            .field("delta_max", &self.delta_max)
            .field("bounds_computed", &self.bounds.get().is_some())
            .finish()
    }
}

/// What one stage application produced.
#[derive(Debug, Clone)]
pub enum StageOutput {
    /// A narrowed candidate set: the stage pruned (or kept) schemas and
    /// folded its certificate charges into the cumulative set.
    Narrowed(CandidateSet),
    /// The final answers — the pipeline stops here.
    Final(AnswerSet),
}

/// Which predicate a filter stage applies — the identity the rewrite
/// rules dedup and reorder by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateId {
    /// Drop schemas too small for an injective assignment.
    Size,
    /// Drop schemas the bounds table certifies empty.
    CertEmpty,
    /// Drop schemas where a width-`width` beam finds no answer.
    Beam {
        /// The beam width.
        width: usize,
    },
}

impl PredicateId {
    /// Relative evaluation cost, for cheapest-first reordering: a size
    /// check is free, a table lookup is cheap, a beam pre-search is
    /// the expensive one.
    pub fn cost(self) -> u8 {
        match self {
            PredicateId::Size => 0,
            PredicateId::CertEmpty => 1,
            PredicateId::Beam { .. } => 2,
        }
    }
}

/// A stage's algebraic shape, as seen by [`Pipeline::normalize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Per-schema keep/drop decided independently of the rest of the
    /// active set; idempotent; commutes with other predicates.
    Predicate(PredicateId),
    /// Keeps the `keep` most promising survivors; a rewrite barrier.
    Truncate {
        /// How many schemas survive.
        keep: usize,
    },
    /// Produces the final answer set.
    Terminal,
    /// Unknown semantics — no rewrite crosses it.
    Opaque,
}

/// One step of a matching pipeline.
///
/// A stage must be deterministic in `(cx, active)` and, when narrowing,
/// must charge the certificate admissibly: every schema it prunes
/// either is certified empty or contributes its answer cap, so the
/// composed `|A| / (|A| + Σ caps)` never overstates recall.
pub trait Stage: Send + Sync + fmt::Debug {
    /// Display name, e.g. `"truncate(8)"`.
    fn name(&self) -> String;

    /// The stage's algebraic shape. Implementations outside this
    /// module should return [`StageKind::Opaque`] (the default) unless
    /// they genuinely satisfy a kind's contract — `normalize` rewrites
    /// on the strength of it.
    fn kind(&self) -> StageKind {
        StageKind::Opaque
    }

    /// Apply the stage.
    fn apply(&self, cx: &StageContext<'_>, active: &CandidateSet) -> StageOutput;
}

/// Predicate filter: drop schemas with fewer nodes than the personal
/// schema — no injective assignment can exist, so pruning is free.
#[derive(Debug, Clone, Copy, Default)]
pub struct SizeFilter;

impl Stage for SizeFilter {
    fn name(&self) -> String {
        "size".to_string()
    }

    fn kind(&self) -> StageKind {
        StageKind::Predicate(PredicateId::Size)
    }

    fn apply(&self, cx: &StageContext<'_>, active: &CandidateSet) -> StageOutput {
        let problem = cx.problem();
        let repo = problem.repository();
        let k = problem.personal_size();
        let mut kept = Vec::with_capacity(active.active_count());
        let mut dropped = 0usize;
        for &sid in active.active().ids() {
            if repo.schema(sid).len() < k {
                dropped += 1;
            } else {
                kept.push(sid);
            }
        }
        if dropped == 0 {
            return StageOutput::Narrowed(active.clone());
        }
        StageOutput::Narrowed(active.narrow(problem, kept, dropped, 0.0))
    }
}

/// Predicate filter: drop every schema the shared bounds table
/// certifies empty at the threshold — the pipeline form of
/// [`CandidateGenerator`](crate::CandidateGenerator)'s auto mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct CandidateFilter;

impl Stage for CandidateFilter {
    fn name(&self) -> String {
        "candidates".to_string()
    }

    fn kind(&self) -> StageKind {
        StageKind::Predicate(PredicateId::CertEmpty)
    }

    fn apply(&self, cx: &StageContext<'_>, active: &CandidateSet) -> StageOutput {
        let bounds = cx.bounds();
        let mut kept = Vec::with_capacity(active.active_count());
        let mut dropped = 0usize;
        for &sid in active.active().ids() {
            if bounds.entry(sid).cert_empty {
                dropped += 1;
            } else {
                kept.push(sid);
            }
        }
        if dropped == 0 {
            return StageOutput::Narrowed(active.clone());
        }
        StageOutput::Narrowed(active.narrow(cx.problem(), kept, dropped, 0.0))
    }
}

/// Selection stage: keep the `keep` most promising survivors (smallest
/// cost lower bound, ties by schema id) and charge every dropped
/// schema's answer cap — the pipeline form of an explicit
/// [`CandidateConfig::budget`](crate::CandidateConfig).
#[derive(Debug, Clone, Copy)]
pub struct Truncate {
    keep: usize,
}

impl Truncate {
    /// Keep at most `keep` schemas.
    pub fn new(keep: usize) -> Self {
        Truncate { keep }
    }

    /// The survivor budget.
    pub fn keep(&self) -> usize {
        self.keep
    }
}

impl Stage for Truncate {
    fn name(&self) -> String {
        format!("truncate({})", self.keep)
    }

    fn kind(&self) -> StageKind {
        StageKind::Truncate { keep: self.keep }
    }

    fn apply(&self, cx: &StageContext<'_>, active: &CandidateSet) -> StageOutput {
        if active.active_count() <= self.keep {
            return StageOutput::Narrowed(active.clone());
        }
        let bounds = cx.bounds();
        let mut ranked: Vec<(f64, SchemaId)> = active
            .active()
            .ids()
            .iter()
            .map(|&sid| (bounds.entry(sid).total_lb, sid))
            .collect();
        ranked.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("bounds are never NaN")
                .then(a.1.index().cmp(&b.1.index()))
        });
        let mut kept: Vec<SchemaId> = ranked[..self.keep].iter().map(|&(_, sid)| sid).collect();
        kept.sort_by_key(|sid| sid.index());
        let mut cert_dropped = 0usize;
        let caps_added = ranked[self.keep..].iter().fold(0.0, |acc, &(_, sid)| {
            let entry = bounds.entry(sid);
            if entry.cert_empty {
                cert_dropped += 1;
            }
            acc + entry.cap
        });
        StageOutput::Narrowed(active.narrow(cx.problem(), kept, cert_dropped, caps_added))
    }
}

/// Predicate filter: run a per-schema beam search over the survivors
/// and drop every schema where the beam finds no answer, charging its
/// cap — "beam as filter", feeding e.g. exhaustive-on-survivors.
///
/// Beam survival is decided per schema from that schema's cost table
/// alone, so this *is* a predicate: it commutes with the other filters
/// and is idempotent (a schema the beam answered once it answers again
/// on any narrower restriction that retains it).
#[derive(Debug, Clone, Copy)]
pub struct BeamFilter {
    width: usize,
}

impl BeamFilter {
    /// Filter with a width-`width` beam.
    pub fn new(width: usize) -> Self {
        BeamFilter { width }
    }

    /// The beam width.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl Stage for BeamFilter {
    fn name(&self) -> String {
        format!("beam({})", self.width)
    }

    fn kind(&self) -> StageKind {
        StageKind::Predicate(PredicateId::Beam { width: self.width })
    }

    fn apply(&self, cx: &StageContext<'_>, active: &CandidateSet) -> StageOutput {
        let problem = cx.problem();
        let restricted = problem.with_candidates(active);
        let beam = BeamMatcher::new(cx.objective().clone(), self.width);
        let found = beam.run(&restricted, cx.delta_max(), cx.registry());
        let mut hit = vec![false; problem.repository().len()];
        for answer in found.answers() {
            if let Some(mapping) = cx.registry().resolve(answer.id) {
                hit[mapping.schema.index()] = true;
            }
        }
        let bounds = cx.bounds();
        let mut kept = Vec::with_capacity(active.active_count());
        let mut cert_dropped = 0usize;
        let mut caps_added = 0.0f64;
        for &sid in active.active().ids() {
            if hit[sid.index()] {
                kept.push(sid);
                continue;
            }
            let entry = bounds.entry(sid);
            if entry.cert_empty {
                cert_dropped += 1;
            }
            caps_added += entry.cap;
        }
        if kept.len() == active.active_count() {
            return StageOutput::Narrowed(active.clone());
        }
        StageOutput::Narrowed(active.narrow(problem, kept, cert_dropped, caps_added))
    }
}

/// Terminal stage: run any [`Matcher`] on the surviving restriction.
#[derive(Debug, Clone)]
pub struct RefineStage<M> {
    inner: M,
}

impl<M: Matcher + Send + Sync + fmt::Debug> RefineStage<M> {
    /// Lift `inner` into a terminal refine stage.
    pub fn new(inner: M) -> Self {
        RefineStage { inner }
    }

    /// The wrapped matcher.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Matcher + Send + Sync + fmt::Debug> Stage for RefineStage<M> {
    fn name(&self) -> String {
        format!("refine({})", self.inner.name())
    }

    fn kind(&self) -> StageKind {
        StageKind::Terminal
    }

    fn apply(&self, cx: &StageContext<'_>, active: &CandidateSet) -> StageOutput {
        let restricted = cx.problem().with_candidates(active);
        StageOutput::Final(self.inner.run(&restricted, cx.delta_max(), cx.registry()))
    }
}

/// One stage's bookkeeping inside a [`PipelineCertificate`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// The stage's display name.
    pub name: String,
    /// Active schemas entering the stage.
    pub active_in: usize,
    /// Active schemas leaving the stage.
    pub active_out: usize,
    /// Schemas this stage pruned as certified empty.
    pub cert_empty_added: usize,
    /// Answer caps this stage charged for uncertified pruning.
    pub caps_added: f64,
    /// The stage's telescoping recall factor; the product over all
    /// stages reproduces the composed certified recall.
    pub factor: f64,
    /// Wall time the stage's `apply` took, in nanoseconds. Always
    /// measured (two monotonic clock reads per stage); when tracing is
    /// enabled the same duration is also emitted as a
    /// `pipeline.stage` span.
    pub wall_ns: u64,
}

/// A composed certificate: the end-to-end [`RecallCertificate`] plus
/// the per-stage attribution of how it was paid for.
#[derive(Debug, Clone)]
pub struct PipelineCertificate {
    stages: Vec<StageReport>,
    certificate: RecallCertificate,
}

impl PipelineCertificate {
    /// Per-stage reports, in execution order (filters, then the stage
    /// that answered).
    pub fn stages(&self) -> &[StageReport] {
        &self.stages
    }

    /// The composed end-to-end certificate.
    pub fn certificate(&self) -> &RecallCertificate {
        &self.certificate
    }

    /// The composed certified recall `|A| / (|A| + Σ caps)`.
    pub fn certified_recall(&self) -> f64 {
        self.certificate.certified_recall()
    }

    /// The `smx-eval` factor-breakdown form of this certificate; its
    /// factor product reproduces [`certified_recall`](Self::certified_recall),
    /// and each stage factor carries the stage's wall time and
    /// active-set delta for cost/selectivity attribution.
    pub fn factor_breakdown(&self) -> FactorBreakdown {
        FactorBreakdown::with_stages(
            self.certificate.answer_count(),
            self.stages
                .iter()
                .map(|r| StageInput {
                    stage: r.name.clone(),
                    caps_added: r.caps_added,
                    wall_ns: r.wall_ns,
                    active_in: r.active_in,
                    active_out: r.active_out,
                })
                .collect(),
        )
    }
}

impl fmt::Display for PipelineCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline certificate: recall ≥ {:.6}, {} answers, missed ≤ {}",
            self.certified_recall(),
            self.certificate.answer_count(),
            self.certificate.missed_cap()
        )?;
        for report in &self.stages {
            writeln!(
                f,
                "  {}: {} → {} active, {} cert-empty, caps +{}, factor {:.6}, {}",
                report.name,
                report.active_in,
                report.active_out,
                report.cert_empty_added,
                report.caps_added,
                report.factor,
                smx_obs::format_ns(report.wall_ns)
            )?;
        }
        Ok(())
    }
}

/// A pipeline run's result: the answers plus the composed certificate.
#[derive(Debug, Clone)]
pub struct PipelineAnswer {
    /// The final answer set — every score from the shared Δ.
    pub answers: AnswerSet,
    /// The composed certificate with per-stage attribution.
    pub certificate: PipelineCertificate,
}

/// A declarative filter→refine matching process.
///
/// Built with [`Pipeline::builder`]; implements [`Matcher`], so it
/// drops anywhere a monolithic matcher goes. See the
/// [module docs](self) for the stage algebra and certificate
/// composition.
#[derive(Debug, Clone)]
pub struct Pipeline {
    objective: ObjectiveFunction,
    filters: Vec<Arc<dyn Stage>>,
    terminal: Arc<dyn Stage>,
    name: String,
}

impl Pipeline {
    /// Start composing a pipeline over the shared objective Δ.
    pub fn builder(objective: ObjectiveFunction) -> PipelineBuilder {
        PipelineBuilder {
            objective,
            filters: Vec::new(),
        }
    }

    fn assemble(
        objective: ObjectiveFunction,
        filters: Vec<Arc<dyn Stage>>,
        terminal: Arc<dyn Stage>,
    ) -> Pipeline {
        let mut name = String::from("pipeline(");
        for stage in &filters {
            name.push_str(&stage.name());
            name.push('→');
        }
        name.push_str(&terminal.name());
        name.push(')');
        Pipeline {
            objective,
            filters,
            terminal,
            name,
        }
    }

    /// The pipeline's shared objective.
    pub fn objective(&self) -> &ObjectiveFunction {
        &self.objective
    }

    /// Display names of all stages, filters first, terminal last.
    pub fn stage_names(&self) -> Vec<String> {
        self.filters
            .iter()
            .map(|s| s.name())
            .chain(std::iter::once(self.terminal.name()))
            .collect()
    }

    /// Run the pipeline and return answers plus the composed
    /// certificate.
    pub fn run_certified(
        &self,
        problem: &MatchProblem,
        delta_max: f64,
        registry: &MappingRegistry,
    ) -> PipelineAnswer {
        let cx = StageContext::new(problem, delta_max, registry, &self.objective);
        let mut active = CandidateSet::full(problem, delta_max);
        let mut reports: Vec<StageReport> = Vec::with_capacity(self.filters.len() + 1);
        let mut answers: Option<AnswerSet> = None;
        for stage in &self.filters {
            let active_in = active.active_count();
            // The span (when tracing is on) parents whatever the stage
            // does internally — bounds-table builds, store sweeps — and
            // the wall clock is read either way so every StageReport
            // carries its stage's wall time.
            let mut span = smx_obs::span("pipeline.stage");
            let started = Instant::now();
            let output = stage.apply(&cx, &active);
            let wall_ns = started.elapsed().as_nanos() as u64;
            match output {
                StageOutput::Narrowed(next) => {
                    if span.is_active() {
                        span.attr("stage", stage.name());
                        span.attr("active_in", active_in);
                        span.attr("active_out", next.active_count());
                        span.attr(
                            "cert_empty_added",
                            next.cert_empty_count() - active.cert_empty_count(),
                        );
                        span.attr("caps_added", next.caps_sum() - active.caps_sum());
                    }
                    drop(span);
                    reports.push(StageReport {
                        name: stage.name(),
                        active_in,
                        active_out: next.active_count(),
                        cert_empty_added: next.cert_empty_count() - active.cert_empty_count(),
                        caps_added: next.caps_sum() - active.caps_sum(),
                        factor: 1.0,
                        wall_ns,
                    });
                    active = next;
                }
                StageOutput::Final(found) => {
                    // A filter may answer early; later stages never run.
                    if span.is_active() {
                        span.attr("stage", stage.name());
                        span.attr("active_in", active_in);
                        span.attr("answered_early", true);
                    }
                    drop(span);
                    reports.push(StageReport {
                        name: stage.name(),
                        active_in,
                        active_out: active_in,
                        cert_empty_added: 0,
                        caps_added: 0.0,
                        factor: 1.0,
                        wall_ns,
                    });
                    answers = Some(found);
                    break;
                }
            }
        }
        let answers = match answers {
            Some(found) => found,
            None => {
                let active_in = active.active_count();
                let mut span = smx_obs::span("pipeline.stage");
                let started = Instant::now();
                let output = self.terminal.apply(&cx, &active);
                let wall_ns = started.elapsed().as_nanos() as u64;
                match output {
                    StageOutput::Final(found) => {
                        if span.is_active() {
                            span.attr("stage", self.terminal.name());
                            span.attr("active_in", active_in);
                            span.attr("answers", found.len());
                        }
                        drop(span);
                        reports.push(StageReport {
                            name: self.terminal.name(),
                            active_in,
                            active_out: active_in,
                            cert_empty_added: 0,
                            caps_added: 0.0,
                            factor: 1.0,
                            wall_ns,
                        });
                        found
                    }
                    StageOutput::Narrowed(_) => {
                        unreachable!("terminal stage must produce an answer set")
                    }
                }
            }
        };
        let certificate = RecallCertificate::new(&active, answers.len());
        // Telescoping per-stage factors: with the suffix cap sums
        // C_{≥i}, f_i = (a + C_{>i}) / (a + C_{≥i}); the product
        // collapses to a / (a + Σ caps) — the certificate itself.
        let a = answers.len() as f64;
        let mut remaining: f64 = reports.iter().rev().fold(0.0, |acc, r| acc + r.caps_added);
        for report in reports.iter_mut() {
            let after = remaining - report.caps_added;
            report.factor = if remaining == 0.0 {
                1.0
            } else {
                (a + after) / (a + remaining)
            };
            remaining = after;
        }
        PipelineAnswer {
            answers,
            certificate: PipelineCertificate {
                stages: reports,
                certificate,
            },
        }
    }

    /// Rewrite the pipeline into a cheaper equivalent form. The
    /// rewrites only use [`Stage::kind`] facts:
    ///
    /// 1. drop statically no-op stages (`truncate(usize::MAX)`);
    /// 2. fuse adjacent truncations into one with the smaller budget;
    /// 3. within each maximal run of adjacent predicate filters: drop
    ///    repeated predicates (idempotence), absorb a size filter into
    ///    a certified-empty filter (which implies it), and reorder the
    ///    run cheapest-first (commutation).
    ///
    /// Selection stages, terminals and [`StageKind::Opaque`] stages are
    /// barriers: nothing is moved across them. The differential suite
    /// asserts a normalized pipeline's answers — and its composed
    /// certificate — are bitwise identical to the source pipeline's.
    pub fn normalize(&self) -> Pipeline {
        let mut stages = self.filters.clone();
        loop {
            let mut changed = false;

            // Rule 1: statically no-op stages.
            let before = stages.len();
            stages.retain(|s| !matches!(s.kind(), StageKind::Truncate { keep: usize::MAX }));
            changed |= stages.len() != before;

            // Rule 2: fuse adjacent truncations.
            let mut fused: Vec<Arc<dyn Stage>> = Vec::with_capacity(stages.len());
            for stage in stages.drain(..) {
                if let (Some(StageKind::Truncate { keep: a }), StageKind::Truncate { keep: b }) =
                    (fused.last().map(|s| s.kind()), stage.kind())
                {
                    fused.pop();
                    fused.push(Arc::new(Truncate::new(a.min(b))));
                    changed = true;
                } else {
                    fused.push(stage);
                }
            }
            stages = fused;

            // Rule 3: normalise each maximal predicate run.
            let mut out: Vec<Arc<dyn Stage>> = Vec::with_capacity(stages.len());
            let mut run: Vec<Arc<dyn Stage>> = Vec::new();
            for stage in stages.drain(..) {
                if matches!(stage.kind(), StageKind::Predicate(_)) {
                    run.push(stage);
                } else {
                    normalize_predicate_run(&mut run, &mut changed);
                    out.append(&mut run);
                    out.push(stage);
                }
            }
            normalize_predicate_run(&mut run, &mut changed);
            out.append(&mut run);
            stages = out;

            if !changed {
                break;
            }
        }
        Pipeline::assemble(self.objective.clone(), stages, self.terminal.clone())
    }
}

/// Apply the predicate-run rewrites (dedup, size absorption,
/// cheapest-first order) to one maximal run of adjacent predicates.
fn normalize_predicate_run(run: &mut Vec<Arc<dyn Stage>>, changed: &mut bool) {
    if run.len() < 2 {
        return;
    }
    let before = run.len();
    let mut seen: Vec<PredicateId> = Vec::new();
    run.retain(|s| match s.kind() {
        StageKind::Predicate(id) => {
            if seen.contains(&id) {
                false
            } else {
                seen.push(id);
                true
            }
        }
        _ => true,
    });
    if seen.contains(&PredicateId::CertEmpty) && seen.contains(&PredicateId::Size) {
        run.retain(|s| s.kind() != StageKind::Predicate(PredicateId::Size));
    }
    *changed |= run.len() != before;
    let costs: Vec<u8> = run
        .iter()
        .map(|s| match s.kind() {
            StageKind::Predicate(id) => id.cost(),
            _ => u8::MAX,
        })
        .collect();
    if costs.windows(2).any(|w| w[0] > w[1]) {
        // Stable, so equal-cost predicates keep their relative order.
        run.sort_by_key(|s| match s.kind() {
            StageKind::Predicate(id) => id.cost(),
            _ => u8::MAX,
        });
        *changed = true;
    }
}

impl Matcher for Pipeline {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, problem: &MatchProblem, delta_max: f64, registry: &MappingRegistry) -> AnswerSet {
        self.run_certified(problem, delta_max, registry).answers
    }
}

/// Builder for [`Pipeline`]s: append filter stages, then seal with a
/// terminal refine stage.
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    objective: ObjectiveFunction,
    filters: Vec<Arc<dyn Stage>>,
}

impl PipelineBuilder {
    /// Append any filter stage.
    pub fn stage(mut self, stage: impl Stage + 'static) -> Self {
        self.filters.push(Arc::new(stage));
        self
    }

    /// Append an already-shared stage (e.g. from
    /// [`CandidateGenerator::into_stages`](crate::CandidateGenerator::into_stages)).
    pub fn stage_arc(mut self, stage: Arc<dyn Stage>) -> Self {
        self.filters.push(stage);
        self
    }

    /// Append a [`SizeFilter`].
    pub fn size_filter(self) -> Self {
        self.stage(SizeFilter)
    }

    /// Append a [`CandidateFilter`].
    pub fn candidate_filter(self) -> Self {
        self.stage(CandidateFilter)
    }

    /// Append a [`Truncate`] keeping `keep` survivors.
    pub fn truncate(self, keep: usize) -> Self {
        self.stage(Truncate::new(keep))
    }

    /// Append a [`BeamFilter`] of the given width.
    pub fn beam_filter(self, width: usize) -> Self {
        self.stage(BeamFilter::new(width))
    }

    /// Seal with a terminal stage lifting `matcher`.
    pub fn refine(self, matcher: impl Matcher + Send + Sync + fmt::Debug + 'static) -> Pipeline {
        self.refine_stage(RefineStage::new(matcher))
    }

    /// Seal with an explicit terminal stage.
    pub fn refine_stage(self, terminal: impl Stage + 'static) -> Pipeline {
        Pipeline::assemble(self.objective, self.filters, Arc::new(terminal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveMatcher;
    use smx_synth::{Scenario, ScenarioConfig};

    fn problem() -> MatchProblem {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 6,
            noise_schemas: 6,
            personal_nodes: 4,
            host_nodes: 8,
            perturbation_strength: 0.6,
            ..Default::default()
        });
        MatchProblem::new(sc.personal, sc.repository).unwrap()
    }

    #[test]
    fn pipeline_certificate_books_balance() {
        let problem = problem();
        let pipe = Pipeline::builder(ObjectiveFunction::default())
            .size_filter()
            .candidate_filter()
            .truncate(3)
            .refine(ExhaustiveMatcher::default());
        let registry = MappingRegistry::new();
        let run = pipe.run_certified(&problem, 0.3, &registry);
        let cert = &run.certificate;
        // Factor product reproduces the composed recall.
        assert!(cert
            .factor_breakdown()
            .reproduces(cert.certified_recall(), 1e-9));
        // Stage chain is contiguous: each stage's output feeds the next.
        for pair in cert.stages().windows(2) {
            assert_eq!(pair[0].active_out, pair[1].active_in);
        }
        assert_eq!(cert.certificate().answer_count(), run.answers.len());
    }

    #[test]
    fn normalize_applies_the_documented_rules() {
        let pipe = Pipeline::builder(ObjectiveFunction::default())
            .candidate_filter()
            .size_filter()
            .truncate(usize::MAX)
            .candidate_filter()
            .truncate(9)
            .truncate(4)
            .refine(ExhaustiveMatcher::default());
        let normal = pipe.normalize();
        assert_eq!(
            normal.stage_names(),
            vec![
                "candidates".to_string(),
                "truncate(4)".to_string(),
                "refine(S1-exhaustive)".to_string(),
            ],
            "dedup + size absorption + no-op drop + truncate fusion"
        );
        // Normalisation is idempotent.
        assert_eq!(normal.normalize().stage_names(), normal.stage_names());
    }

    #[test]
    fn normalize_orders_predicates_cheapest_first_and_respects_barriers() {
        let pipe = Pipeline::builder(ObjectiveFunction::default())
            .beam_filter(8)
            .size_filter()
            .truncate(5)
            .beam_filter(8)
            .candidate_filter()
            .refine(ExhaustiveMatcher::default());
        let normal = pipe.normalize();
        assert_eq!(
            normal.stage_names(),
            vec![
                "size".to_string(),
                "beam(8)".to_string(),
                "truncate(5)".to_string(),
                "candidates".to_string(),
                "beam(8)".to_string(),
                "refine(S1-exhaustive)".to_string(),
            ],
            "sorts within runs only; truncate is a barrier, so the \
             second beam is not a duplicate of the first"
        );
    }
}
