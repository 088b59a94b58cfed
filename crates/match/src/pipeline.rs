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
//! # Stages
//!
//! Every bound-based stage prunes against one shared, per-run
//! [`BoundsTable`](crate::candidates): each schema's certified-empty
//! flag, mapping-cost lower bound, and admissible answer cap, computed
//! once at full precision the first time any stage asks for it. There
//! are three kinds of stage:
//!
//! * **filters** ([`CandidateFilter`], [`BeamFilter`]) decide keep/drop
//!   for each active schema;
//! * **selection stages** ([`Truncate`]) keep a count-bounded subset of
//!   the survivors ranked by the table's cost lower bound;
//! * **terminal stages** ([`RefineStage`]) run a full matcher on the
//!   surviving restriction and end the pipeline.
//!
//! The `pipeline_differential` / `pipeline_algebra` suites hold
//! pipelines to their monolithic counterparts bit for bit, and
//! composed certificates to admissibility for arbitrary stage orders
//! and budgets.
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

/// One step of a matching pipeline.
///
/// A stage must be deterministic in `(cx, active)` and, when narrowing,
/// must charge the certificate admissibly: every schema it prunes
/// either is certified empty or contributes its answer cap, so the
/// composed `|A| / (|A| + Σ caps)` never overstates recall.
pub trait Stage: Send + Sync + fmt::Debug {
    /// Display name, e.g. `"truncate(8)"`.
    fn name(&self) -> String;

    /// Apply the stage.
    fn apply(&self, cx: &StageContext<'_>, active: &CandidateSet) -> StageOutput;
}

/// Filter: drop every schema the shared bounds table certifies empty at
/// the threshold — the pipeline form of
/// [`CandidateGenerator`](crate::CandidateGenerator)'s auto mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct CandidateFilter;

impl Stage for CandidateFilter {
    fn name(&self) -> String {
        "candidates".to_string()
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

/// Filter: run a per-schema beam search over the survivors and drop
/// every schema where the beam finds no answer, charging its cap —
/// "beam as filter", feeding e.g. exhaustive-on-survivors.
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
/// [module docs](self) for the stage kinds and certificate
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
}
