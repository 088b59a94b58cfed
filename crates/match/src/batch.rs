//! Batch matching: many personal schemas against one repository.
//!
//! The paper's non-exhaustive bounds are about *serving* — one large
//! repository answering a stream of personal-schema queries. Matching
//! each [`MatchProblem`] alone repeats work the queries share: their
//! label vocabularies overlap heavily (personal schemas come from the
//! same domain), yet every solo cost-matrix fill fetches its rows
//! one problem at a time. This module builds the bulk path:
//!
//! * [`BatchProblem`] — N personal schemas against one
//!   [`Repository`]. All N problems share the repository's label score
//!   store (`Arc`-shared via cloning), and
//!   [`BatchProblem::prefill_rows`] dedups the batch's distinct labels
//!   and fetches every missing score row in **one** call to
//!   [`LabelStore::score_rows`](smx_repo::LabelStore::score_rows) — a
//!   single profile-major sweep over the stored label profiles (one
//!   pass per repository label column), optionally chunked across
//!   scoped worker threads, instead of one pass per query label.
//! * [`BatchMatcher`] — dispatches every problem in the batch to any
//!   inner [`Matcher`] (exhaustive, beam, cluster, top-k, brute-force),
//!   sequentially or across the store's shared scoped-thread scheduler
//!   ([`smx_repo::workers::claim_each`]).
//!
//! # Identity contract
//!
//! Batching is an *execution* strategy, never a scoring one: the
//! batched sweep computes the same per-pair values as solo fills
//! (per-pair independence; see `smx_repo::store`), so every answer set
//! returned by [`BatchMatcher::run_batch`] is **bitwise identical** —
//! scores and, under sequential dispatch with a shared registry, even
//! answer ids — to running each problem alone through the same
//! matcher. `tests/batch_identity.rs` gates this differentially across
//! every roster matcher. Threaded dispatch can intern mappings in a
//! different order, so only ids may differ there; resolved mappings
//! and scores still match bitwise.
//!
//! The candidate tier composes freely with batching: wrap the inner
//! matcher in a [`CertifiedMatcher`](crate::certified::CertifiedMatcher)
//! (or restrict each problem via
//! [`MatchProblem::with_candidates`] before dispatch). Restricted
//! fills go through the store's subset sweep, which shares the same
//! cached rows the batched prefill populates — per-pair values are
//! identical either way, so the identity contract is unaffected.
//!
//! # Memory pressure: batch-aware admission
//!
//! A store LRU bound below the batch's distinct label count could evict
//! a prefetched row before the per-problem fills read it, and each fill
//! would re-sweep it. Admission chunks are the one mechanism that keeps
//! the bound from reopening that gap: when the store is bounded,
//! [`BatchMatcher::run_batch`] splits the batch with
//! [`BatchProblem::admission_chunks`] into contiguous chunks whose
//! union vocabulary fits `max_cached_rows`, and each chunk is
//! prefetched ([`BatchProblem::prefill_chunk`]) and matched before the
//! next is admitted. Within a chunk the prefilled rows are the most
//! recently used, so the LRU never evicts them before the chunk's fills
//! read them — zero within-chunk evictions (the admission tests assert
//! this via `StoreCounters`).
//!
//! The residual is a *single problem* whose own vocabulary exceeds the
//! bound: its chunk is that problem alone, and its fill fetches all of
//! its rows in one store call, sweeping each missing row once. The
//! cache is back under the bound when that call returns, but the fill
//! holds every one of the problem's rows live until it ends. Results
//! are unaffected either way: bounded, chunked, or plain, every path
//! computes bitwise-identical rows.

use crate::error::MatchError;
use crate::mapping::MappingRegistry;
use crate::matcher::Matcher;
use crate::problem::MatchProblem;
use smx_eval::AnswerSet;
use smx_repo::{workers, Repository};
use smx_xml::Schema;

/// N personal schemas to be matched against one repository.
///
/// Construction is cheap: every contained [`MatchProblem`] clones the
/// repository, and repository clones share both the schema list and
/// the label store — profiles, column arena, and cached score rows —
/// through `Arc`s, so no schema data is duplicated per problem.
#[derive(Debug, Clone)]
pub struct BatchProblem {
    repository: Repository,
    problems: Vec<MatchProblem>,
}

impl BatchProblem {
    /// Wrap `personals` against `repository`. Fails on the first empty
    /// personal schema; an empty batch is valid.
    pub fn new(personals: Vec<Schema>, repository: Repository) -> Result<Self, MatchError> {
        let problems = personals
            .into_iter()
            .map(|personal| MatchProblem::new(personal, repository.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchProblem {
            repository,
            problems,
        })
    }

    /// Number of problems in the batch.
    pub fn len(&self) -> usize {
        self.problems.len()
    }

    /// Whether the batch holds no problems.
    pub fn is_empty(&self) -> bool {
        self.problems.is_empty()
    }

    /// The shared repository.
    pub fn repository(&self) -> &Repository {
        &self.repository
    }

    /// The contained problems, batch order.
    pub fn problems(&self) -> &[MatchProblem] {
        &self.problems
    }

    /// One problem by batch index.
    pub fn problem(&self, index: usize) -> &MatchProblem {
        &self.problems[index]
    }

    /// The batch's distinct personal labels, first-seen order across
    /// problems — what one shared sweep must cover.
    pub fn distinct_labels(&self) -> Vec<&str> {
        Self::distinct_labels_of(&self.problems)
    }

    /// Distinct personal labels of a slice of problems, first-seen
    /// order — the per-chunk variant of [`distinct_labels`](Self::distinct_labels).
    fn distinct_labels_of(problems: &[MatchProblem]) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for problem in problems {
            for name in problem.distinct_personal_labels() {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        names
    }

    /// Fetch every distinct personal label's score row from the shared
    /// store in one batched call — missing rows are computed by a
    /// single sweep over the stored profiles instead of one sweep per
    /// label per problem. Returns the number of distinct labels served.
    ///
    /// After this, each problem's
    /// [`cost_matrix`](MatchProblem::cost_matrix) fill is pure
    /// cached-row lookups, unless the store's LRU bound is below the
    /// batch vocabulary and evicts rows in between —
    /// [`BatchMatcher::run_batch`] admits a bounded batch chunk by
    /// chunk ([`prefill_chunk`](Self::prefill_chunk)) so that never
    /// happens.
    pub fn prefill_rows(&self) -> usize {
        self.prefill_chunk(0..self.problems.len())
    }

    /// Prefill the distinct labels of the problems in `chunk` only —
    /// the admission path ([`BatchMatcher::run_batch`]) serves a
    /// bounded store chunk by chunk so no chunk's vocabulary outgrows
    /// the row cache. Returns the number of distinct labels served.
    pub fn prefill_chunk(&self, chunk: std::ops::Range<usize>) -> usize {
        let names = Self::distinct_labels_of(&self.problems[chunk]);
        if !names.is_empty() {
            self.repository.store().score_rows(&names);
        }
        names.len()
    }

    /// Split the batch into contiguous chunks whose union label
    /// vocabularies each fit the store's row-cache bound — the
    /// admission schedule [`BatchMatcher::run_batch`] follows on a
    /// bounded store so prefilled rows are never evicted before the
    /// chunk that prefilled them is done. Unbounded stores (and batches
    /// that fit whole) get one chunk. Every chunk holds at least one
    /// problem, so a single problem with more distinct labels than the
    /// bound still gets admitted (and documented-ly thrashes).
    pub fn admission_chunks(&self) -> Vec<std::ops::Range<usize>> {
        if self.problems.is_empty() {
            return Vec::new();
        }
        let Some(cap) = self.repository.store().config().max_cached_rows else {
            return std::iter::once(0..self.problems.len()).collect();
        };
        let mut chunks = Vec::new();
        let mut start = 0usize;
        let mut vocabulary: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for (i, problem) in self.problems.iter().enumerate() {
            let labels = problem.distinct_personal_labels();
            let grown = labels
                .iter()
                .filter(|name| !vocabulary.contains(*name))
                .count();
            if i > start && vocabulary.len() + grown > cap {
                chunks.push(start..i);
                start = i;
                vocabulary.clear();
            }
            vocabulary.extend(labels);
        }
        chunks.push(start..self.problems.len());
        chunks
    }

    /// Take the problems out of the batch.
    pub fn into_problems(self) -> Vec<MatchProblem> {
        self.problems
    }
}

/// Bulk dispatcher: one shared row prefill, then the inner matcher per
/// problem — sequentially by default, or across scoped workers pulling
/// problems off [`smx_repo::workers::claim_each`]'s shared cursor.
#[derive(Debug, Clone)]
pub struct BatchMatcher<M> {
    inner: M,
    threads: usize,
}

impl<M: Matcher + Sync> BatchMatcher<M> {
    /// Sequential dispatch (problems run in batch order, one at a
    /// time) — the mode whose answer sets are identical to solo runs
    /// down to the interned ids.
    pub fn new(inner: M) -> Self {
        BatchMatcher { inner, threads: 1 }
    }

    /// Dispatch across `threads` scoped workers, resolved by
    /// [`smx_repo::workers::resolve`]: `0` means one per core, and any
    /// larger count is capped at the core count. Scores stay bitwise
    /// identical to sequential dispatch; only registry id assignment
    /// order may differ.
    pub fn with_threads(inner: M, threads: usize) -> Self {
        BatchMatcher {
            inner,
            threads: workers::resolve(threads),
        }
    }

    /// The wrapped matcher.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Configured worker count (1 = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run the whole batch: prefill the shared score rows, then run the
    /// inner matcher per problem. `result[i]` answers
    /// `batch.problem(i)`.
    ///
    /// On a bounded store the batch is admitted chunk by chunk
    /// ([`BatchProblem::admission_chunks`]): each chunk's vocabulary is
    /// prefilled (never exceeding the bound) and its problems matched
    /// before the next chunk's prefill may evict anything — so the row
    /// cache never thrashes within a chunk, at the cost of shared
    /// labels being re-swept once per chunk that uses them. Sequential
    /// dispatch order is identical either way, so so are the results.
    pub fn run_batch(
        &self,
        batch: &BatchProblem,
        delta_max: f64,
        registry: &MappingRegistry,
    ) -> Vec<AnswerSet> {
        let mut span = smx_obs::span("batch.run");
        let chunks = batch.admission_chunks();
        if span.is_active() {
            span.attr("problems", batch.len());
            span.attr("chunks", chunks.len().max(1));
            span.attr("threads", self.threads);
        }
        if chunks.len() <= 1 {
            batch.prefill_rows();
            return self.dispatch(batch.problems(), delta_max, registry);
        }
        let mut results = Vec::with_capacity(batch.len());
        for chunk in chunks {
            let mut chunk_span = smx_obs::span("batch.chunk");
            let prefilled = batch.prefill_chunk(chunk.clone());
            if chunk_span.is_active() {
                chunk_span.attr("start", chunk.start);
                chunk_span.attr("end", chunk.end);
                chunk_span.attr("prefilled_labels", prefilled);
            }
            results.extend(self.dispatch(&batch.problems()[chunk], delta_max, registry));
        }
        results
    }

    /// Run the inner matcher over `problems` — in order when
    /// sequential, or across scoped workers claiming problems off one
    /// cursor. Results are returned in problem order regardless.
    fn dispatch(
        &self,
        problems: &[MatchProblem],
        delta_max: f64,
        registry: &MappingRegistry,
    ) -> Vec<AnswerSet> {
        if self.threads <= 1 || problems.len() <= 1 {
            return problems
                .iter()
                .map(|problem| self.inner.run(problem, delta_max, registry))
                .collect();
        }
        workers::claim_each(problems.len(), self.threads, |i| {
            self.inner.run(&problems[i], delta_max, registry)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveMatcher;
    use crate::mapping::MappingRegistry;
    use crate::objective::ObjectiveFunction;
    use smx_xml::{PrimitiveType, SchemaBuilder};

    fn repository() -> Repository {
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
                .child("order", |o| o.leaf("title", PrimitiveType::String))
                .build(),
        );
        repo
    }

    fn personal(extra: &str) -> Schema {
        SchemaBuilder::new("p")
            .root("book")
            .leaf("title", PrimitiveType::String)
            .leaf(extra, PrimitiveType::Integer)
            .build()
    }

    #[test]
    fn batch_accessors_and_label_dedup() {
        let batch = BatchProblem::new(
            vec![personal("year"), personal("year"), personal("isbn")],
            repository(),
        )
        .unwrap();
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(batch.problem(2).personal_size(), 3);
        // book/title/year shared; isbn only in the third problem.
        assert_eq!(
            batch.distinct_labels(),
            vec!["book", "title", "year", "isbn"]
        );
        assert_eq!(batch.prefill_rows(), 4);
        let store = batch.repository().store();
        assert_eq!(store.cached_rows(), 4);
        assert_eq!(store.pair_evals(), 4 * store.len() as u64);
        // Warm matrices: zero further pair evaluations.
        for problem in batch.problems() {
            problem.cost_matrix(&ObjectiveFunction::default());
        }
        assert_eq!(store.pair_evals(), 4 * store.len() as u64);
        assert_eq!(batch.into_problems().len(), 3);
    }

    #[test]
    fn empty_personal_schema_rejected() {
        let err = BatchProblem::new(vec![Schema::new("empty")], repository()).unwrap_err();
        assert_eq!(err, MatchError::EmptyPersonalSchema);
    }

    #[test]
    fn empty_batch_runs_to_nothing() {
        let batch = BatchProblem::new(Vec::new(), repository()).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.prefill_rows(), 0);
        let registry = MappingRegistry::new();
        let results =
            BatchMatcher::new(ExhaustiveMatcher::default()).run_batch(&batch, 0.4, &registry);
        assert!(results.is_empty());
    }

    #[test]
    fn thread_count_resolution() {
        let cores = workers::resolve(0);
        let auto = BatchMatcher::with_threads(ExhaustiveMatcher::default(), 0);
        assert_eq!(auto.threads(), cores);
        let huge = BatchMatcher::with_threads(ExhaustiveMatcher::default(), usize::MAX);
        assert_eq!(huge.threads(), cores);
        let fixed = BatchMatcher::with_threads(ExhaustiveMatcher::default(), 3);
        assert_eq!(fixed.threads(), 3.min(cores));
        assert_eq!(BatchMatcher::new(ExhaustiveMatcher::default()).threads(), 1);
        assert_eq!(fixed.inner().name(), "S1-exhaustive");
    }
}
