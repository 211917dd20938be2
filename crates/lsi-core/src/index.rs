//! The LSI index: rank-k spectral representation plus retrieval.

use lsi_ir::retrieval::{RankedList, SearchHit};
use lsi_ir::TermDocumentMatrix;
use lsi_linalg::faults::{FaultPlan, FaultyOperator};
use lsi_linalg::solver::{solve_truncated_svd, SolveError, SolveReport};
use lsi_linalg::{vector, LinalgError, LinearOperator, Matrix, TruncatedSvd};

use crate::cancel::{CancelToken, CHECK_INTERVAL};
use crate::config::LsiConfig;

/// Why a query was rejected before any scoring happened.
///
/// Produced by the guarded `try_*` query variants on [`LsiIndex`]; the
/// unguarded legacy methods either silently skip the offending entry
/// (`fold_in`) or panic (see each method's `# Panics` section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadQuery {
    /// A query term id is outside the index vocabulary.
    TermOutOfRange {
        /// The offending term id.
        term: usize,
        /// Number of terms the index knows.
        n_terms: usize,
    },
    /// A document id is outside the indexed document set.
    DocOutOfRange {
        /// The offending document id.
        doc: usize,
        /// Number of indexed documents.
        n_docs: usize,
    },
    /// A query weight is NaN or infinite.
    NonFiniteWeight {
        /// The term whose weight is non-finite.
        term: usize,
    },
    /// A dense LSI-space query has the wrong dimension.
    WrongDimension {
        /// Length of the supplied vector.
        got: usize,
        /// Expected length (the index rank).
        expected: usize,
    },
    /// A dense LSI-space query contains a NaN or infinite component.
    NonFiniteQuery,
}

impl std::fmt::Display for BadQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BadQuery::TermOutOfRange { term, n_terms } => {
                write!(f, "term id {term} out of range (vocabulary size {n_terms})")
            }
            BadQuery::DocOutOfRange { doc, n_docs } => {
                write!(f, "document id {doc} out of range ({n_docs} documents)")
            }
            BadQuery::NonFiniteWeight { term } => {
                write!(f, "non-finite weight for term {term}")
            }
            BadQuery::WrongDimension { got, expected } => {
                write!(f, "query has dimension {got}, expected rank {expected}")
            }
            BadQuery::NonFiniteQuery => write!(f, "query vector has a non-finite component"),
        }
    }
}

/// Errors from building or querying an [`LsiIndex`].
#[derive(Debug, Clone, PartialEq)]
pub enum LsiError {
    /// The requested rank is zero or exceeds `min(n_terms, n_docs)`.
    BadRank {
        /// Requested rank.
        requested: usize,
        /// Maximum feasible rank for this corpus.
        max: usize,
    },
    /// The corpus is empty (no terms or no documents).
    EmptyCorpus,
    /// A linear-algebra failure (shape bug or non-convergence).
    Linalg(LinalgError),
    /// Every backend in the resilient solve plan failed; the report carries
    /// each attempt's backend, iterations, and typed failure cause.
    SolverExhausted(SolveReport),
    /// The query itself is malformed (out-of-range ids, non-finite
    /// weights, wrong dimension); nothing was scored.
    BadQuery(BadQuery),
    /// A cooperative [`CancelToken`] fired (explicit cancellation or an
    /// expired deadline) while scoring was in progress.
    Cancelled,
}

impl std::fmt::Display for LsiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LsiError::BadRank { requested, max } => {
                write!(f, "rank {requested} out of range (max {max})")
            }
            LsiError::EmptyCorpus => write!(f, "corpus has no terms or no documents"),
            LsiError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            LsiError::SolverExhausted(report) => write!(
                f,
                "all {} solver attempts failed:\n{}",
                report.attempts.len(),
                report.summary()
            ),
            LsiError::BadQuery(b) => write!(f, "bad query: {b}"),
            LsiError::Cancelled => write!(f, "operation cancelled (deadline or explicit)"),
        }
    }
}

impl From<BadQuery> for LsiError {
    fn from(b: BadQuery) -> Self {
        LsiError::BadQuery(b)
    }
}

/// How completely a build satisfied its requested rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildStatus {
    /// All requested triplets are live (σ > 0).
    Full,
    /// The corpus's true rank is below the requested rank: the trailing
    /// triplets are zero-padded and retrieval runs in the smaller space.
    /// This is a documented outcome, not an error — the factors are still
    /// verified and exact for the live subspace.
    Degraded {
        /// Number of live triplets actually obtained.
        achieved_rank: usize,
    },
}

impl std::error::Error for LsiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LsiError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for LsiError {
    fn from(e: LinalgError) -> Self {
        LsiError::Linalg(e)
    }
}

/// A built LSI index over a corpus.
///
/// Holds the truncated factors `U_k, D_k, V_kᵀ` of the weighted
/// term–document matrix, the document representations (rows of `V_k D_k`),
/// and enough bookkeeping to fold in queries and rank documents.
///
/// # Examples
///
/// ```
/// use lsi_core::{LsiConfig, LsiIndex};
/// use lsi_ir::TermDocumentMatrix;
///
/// // Two documents about term 0, one about term 2.
/// let td = TermDocumentMatrix::from_triplets(
///     3,
///     3,
///     &[(0, 0, 2.0), (1, 0, 1.0), (0, 1, 1.0), (2, 2, 3.0)],
/// )
/// .unwrap();
/// let index = LsiIndex::build(&td, LsiConfig::with_rank(2)).unwrap();
///
/// let hits = index.query(&[(0, 1.0)], 3);
/// // The two term-0 documents outrank the unrelated one.
/// let ranking = hits.doc_ids();
/// assert!(ranking[0] == 0 || ranking[0] == 1);
/// assert_eq!(*ranking.last().unwrap(), 2);
/// assert!(index.doc_cosine(0, 1) > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct LsiIndex {
    factors: TruncatedSvd,
    /// `m × k` document representations (row `j` = `D_k V_kᵀ e_j`).
    doc_reps: Matrix,
    /// Euclidean norms of the document representations.
    doc_norms: Vec<f64>,
    config: LsiConfig,
    /// Per-attempt record of the solve that produced `factors`; `None` for
    /// indexes reloaded from storage.
    solve_report: Option<SolveReport>,
    /// Sections of the source snapshot that were damaged and quarantined
    /// by a tolerant open; empty for built or strictly-read indexes.
    quarantined: Vec<crate::sections::SectionId>,
}

impl LsiIndex {
    /// Builds the index: weights the counts, runs the configured SVD
    /// backend through the resilient solve driver, and materializes
    /// document representations.
    ///
    /// The configured backend is the *first* attempt of an escalation chain
    /// ([`crate::SvdBackend::solve_plan`]); if it fails or returns factors
    /// that do not verify, the driver falls back — ultimately to a dense
    /// SVD — before giving up with [`LsiError::SolverExhausted`]. The full
    /// per-attempt record is available via [`LsiIndex::solve_report`].
    ///
    /// A corpus whose true rank is below `config.rank` builds successfully
    /// with zero-padded trailing triplets; [`LsiIndex::build_status`]
    /// reports [`BuildStatus::Degraded`] with the achieved rank.
    pub fn build(td: &TermDocumentMatrix, config: LsiConfig) -> Result<Self, LsiError> {
        Self::build_inner(td, config, None)
    }

    /// [`LsiIndex::build`] with seeded faults injected into every
    /// matrix–vector product of the weighted term–document operator.
    ///
    /// This is the integration surface for resilience testing: the faulty
    /// operator exercises exactly the production solve path (guards,
    /// fallback, verification). It is not intended for production builds.
    pub fn build_with_injected_faults(
        td: &TermDocumentMatrix,
        config: LsiConfig,
        faults: FaultPlan,
    ) -> Result<Self, LsiError> {
        Self::build_inner(td, config, Some(faults))
    }

    fn build_inner(
        td: &TermDocumentMatrix,
        config: LsiConfig,
        faults: Option<FaultPlan>,
    ) -> Result<Self, LsiError> {
        let (n, m) = (td.n_terms(), td.n_docs());
        if n == 0 || m == 0 {
            return Err(LsiError::EmptyCorpus);
        }
        let max_rank = n.min(m);
        if config.rank == 0 || config.rank > max_rank {
            return Err(LsiError::BadRank {
                requested: config.rank,
                max: max_rank,
            });
        }

        let weighted = td.weighted(config.weighting);
        let plan = config.backend.solve_plan();
        let (factors, report) = match faults {
            None => Self::solve_on(&weighted, config.rank, &plan)?,
            Some(f) => {
                let faulty = FaultyOperator::new(&weighted, f);
                Self::solve_on(&faulty, config.rank, &plan)?
            }
        };

        let mut doc_reps = factors.doc_representation();
        let mut doc_norms: Vec<f64> = (0..m).map(|j| vector::norm(doc_reps.row(j))).collect();
        // Snap numerically-null representations (e.g. empty documents seen
        // through Lanczos round-off) to exact zero: otherwise their noise
        // direction would enter cosine rankings with arbitrary scores.
        let max_norm = doc_norms.iter().copied().fold(0.0f64, f64::max);
        for (j, norm) in doc_norms.iter_mut().enumerate() {
            if *norm <= 1e-12 * max_norm {
                doc_reps.row_mut(j).fill(0.0);
                *norm = 0.0;
            }
        }

        Ok(LsiIndex {
            factors,
            doc_reps,
            doc_norms,
            config,
            solve_report: Some(report),
            quarantined: Vec::new(),
        })
    }

    /// Runs the resilient driver on one operator, mapping solver errors
    /// into [`LsiError`].
    fn solve_on<Op: LinearOperator + ?Sized>(
        op: &Op,
        rank: usize,
        plan: &lsi_linalg::solver::SolvePlan,
    ) -> Result<(TruncatedSvd, SolveReport), LsiError> {
        match solve_truncated_svd(op, rank, plan) {
            Ok(s) => Ok((s.factors, s.report)),
            Err(SolveError::Invalid(e)) => Err(LsiError::Linalg(e)),
            Err(SolveError::Exhausted(report)) => Err(LsiError::SolverExhausted(report)),
        }
    }

    /// Reassembles an index from previously computed parts (used by the
    /// storage layer; invariants are the caller's responsibility).
    pub(crate) fn from_parts(
        factors: TruncatedSvd,
        doc_reps: Matrix,
        doc_norms: Vec<f64>,
        config: LsiConfig,
    ) -> Self {
        LsiIndex {
            factors,
            doc_reps,
            doc_norms,
            config,
            solve_report: None,
            quarantined: Vec::new(),
        }
    }

    /// The per-attempt record of the solve that built this index, or `None`
    /// for indexes reloaded from storage.
    pub fn solve_report(&self) -> Option<&SolveReport> {
        self.solve_report.as_ref()
    }

    /// Snapshot sections that were damaged and quarantined when this index
    /// was opened tolerantly (see
    /// [`open_index_tolerant`](crate::open_index_tolerant)). Empty for
    /// freshly built indexes and strict reads. A quarantined
    /// [`DocVectors`](crate::sections::SectionId::DocVectors) section means
    /// every stored document row is zero: cosine scans skip them all, so
    /// the index behaves exactly like a term-space fallback until
    /// [`LsiIndex::rebuild_doc_vectors`] repairs it.
    pub fn quarantined_sections(&self) -> &[crate::sections::SectionId] {
        &self.quarantined
    }

    pub(crate) fn set_quarantined(&mut self, quarantined: Vec<crate::sections::SectionId>) {
        self.quarantined = quarantined;
    }

    /// Recomputes the document rows covered by the factorization
    /// (`j < vt.ncols()`) from `D_k V_kᵀ`, reproducing the build-time
    /// representations bitwise — including the numerically-null snap to
    /// exact zero — and clears the
    /// [`DocVectors`](crate::sections::SectionId::DocVectors) quarantine
    /// when at least one row was rebuildable. Rows beyond the
    /// factorization (folded-in documents) are journal-owned and left
    /// untouched; the caller replays or re-applies their mutations.
    ///
    /// Returns how many rows were rebuilt.
    pub fn rebuild_doc_vectors(&mut self) -> usize {
        let m_vt = self.factors.vt.ncols();
        if m_vt == 0 {
            return 0;
        }
        let mut rebuilt = self.factors.doc_representation();
        let mut norms: Vec<f64> = (0..m_vt).map(|j| vector::norm(rebuilt.row(j))).collect();
        // Identical snap rule to the build path, so a rebuild after
        // quarantine round-trips to the original bytes.
        let max_norm = norms.iter().copied().fold(0.0f64, f64::max);
        for (j, norm) in norms.iter_mut().enumerate() {
            if *norm <= 1e-12 * max_norm {
                rebuilt.row_mut(j).fill(0.0);
                *norm = 0.0;
            }
        }
        let count = m_vt.min(self.doc_norms.len());
        for (j, norm) in norms.iter().enumerate().take(count) {
            self.doc_reps.row_mut(j).copy_from_slice(rebuilt.row(j));
            self.doc_norms[j] = *norm;
        }
        if count > 0 {
            self.quarantined
                .retain(|s| *s != crate::sections::SectionId::DocVectors);
        }
        count
    }

    /// Whether the build achieved the full requested rank or degraded to
    /// the corpus's smaller true rank (see [`BuildStatus`]).
    pub fn build_status(&self) -> BuildStatus {
        let live = self
            .factors
            .singular_values
            .iter()
            .filter(|&&s| s > 0.0)
            .count();
        if live < self.config.rank {
            BuildStatus::Degraded {
                achieved_rank: live,
            }
        } else {
            BuildStatus::Full
        }
    }

    /// The truncation rank `k`.
    pub fn rank(&self) -> usize {
        self.factors.rank()
    }

    /// Number of indexed documents.
    pub fn n_docs(&self) -> usize {
        self.doc_reps.nrows()
    }

    /// Number of terms in the universe.
    pub fn n_terms(&self) -> usize {
        self.factors.u.nrows()
    }

    /// The retained singular values `σ_1 ≥ … ≥ σ_k`.
    pub fn singular_values(&self) -> &[f64] {
        &self.factors.singular_values
    }

    /// The truncated factors.
    pub fn factors(&self) -> &TruncatedSvd {
        &self.factors
    }

    /// The build configuration.
    pub fn config(&self) -> &LsiConfig {
        &self.config
    }

    /// Document `j`'s LSI-space representation (a length-`k` vector).
    ///
    /// # Panics
    /// Panics if `j >= self.n_docs()`; use [`LsiIndex::try_doc_vector`]
    /// for a guarded variant.
    pub fn doc_vector(&self, j: usize) -> &[f64] {
        self.doc_reps.row(j)
    }

    /// Guarded [`LsiIndex::doc_vector`]: out-of-range ids are a typed
    /// [`LsiError::BadQuery`] instead of a panic.
    pub fn try_doc_vector(&self, j: usize) -> Result<&[f64], LsiError> {
        self.check_doc(j)?;
        Ok(self.doc_reps.row(j))
    }

    /// All document representations (`m × k`, one row per document).
    pub fn doc_representations(&self) -> &Matrix {
        &self.doc_reps
    }

    /// Term `t`'s LSI-space representation: row `t` of `U_k D_k`.
    ///
    /// # Panics
    /// Panics if `t >= self.n_terms()`; use [`LsiIndex::try_term_vector`]
    /// for a guarded variant.
    pub fn term_vector(&self, t: usize) -> Vec<f64> {
        let k = self.rank();
        (0..k)
            .map(|i| self.factors.u[(t, i)] * self.factors.singular_values[i])
            .collect()
    }

    /// Guarded [`LsiIndex::term_vector`]: out-of-range ids are a typed
    /// [`LsiError::BadQuery`] instead of a panic.
    pub fn try_term_vector(&self, t: usize) -> Result<Vec<f64>, LsiError> {
        self.check_term(t)?;
        Ok(self.term_vector(t))
    }

    /// Validates a sparse term-space query: every term id must be in
    /// range and every weight finite. This is the shared gate of all
    /// guarded query entry points (and of serving layers that score the
    /// same query through a different backend).
    pub fn validate_query(&self, terms: &[(usize, f64)]) -> Result<(), LsiError> {
        for &(t, w) in terms {
            self.check_term(t)?;
            if !w.is_finite() {
                return Err(BadQuery::NonFiniteWeight { term: t }.into());
            }
        }
        Ok(())
    }

    fn check_term(&self, t: usize) -> Result<(), LsiError> {
        if t >= self.n_terms() {
            return Err(BadQuery::TermOutOfRange {
                term: t,
                n_terms: self.n_terms(),
            }
            .into());
        }
        Ok(())
    }

    fn check_doc(&self, j: usize) -> Result<(), LsiError> {
        if j >= self.n_docs() {
            return Err(BadQuery::DocOutOfRange {
                doc: j,
                n_docs: self.n_docs(),
            }
            .into());
        }
        Ok(())
    }

    /// Folds a sparse term-space query into LSI space: `q̂ = U_kᵀ q`.
    ///
    /// Document columns project the same way (`U_kᵀ a_j = D_k V_kᵀ e_j` is
    /// exactly row `j` of the document representations), so query/document
    /// cosines in this space are the paper's intended comparison.
    ///
    /// Out-of-range term ids and zero weights are silently skipped; a
    /// non-finite weight propagates NaN into the folded vector. Use
    /// [`LsiIndex::try_fold_in`] when malformed input must surface as a
    /// typed error instead.
    pub fn fold_in(&self, terms: &[(usize, f64)]) -> Vec<f64> {
        let k = self.rank();
        let mut out = vec![0.0; k];
        for &(t, w) in terms {
            if t >= self.n_terms() || w == 0.0 {
                continue;
            }
            for (i, o) in out.iter_mut().enumerate() {
                *o += self.factors.u[(t, i)] * w;
            }
        }
        out
    }

    /// Guarded [`LsiIndex::fold_in`]: rejects out-of-range term ids and
    /// non-finite weights with [`LsiError::BadQuery`] rather than skipping
    /// or propagating them.
    pub fn try_fold_in(&self, terms: &[(usize, f64)]) -> Result<Vec<f64>, LsiError> {
        self.validate_query(terms)?;
        Ok(self.fold_in(terms))
    }

    /// Folds a dense term-space vector (length `n`) into LSI space.
    pub fn fold_in_dense(&self, q: &[f64]) -> Result<Vec<f64>, LsiError> {
        Ok(self.factors.project(q)?)
    }

    /// Cosine-ranked retrieval in LSI space for a sparse query.
    ///
    /// # Panics
    /// A non-finite query weight poisons the cosine scores and panics when
    /// the ranked list is sorted. Use [`LsiIndex::try_query`] for the
    /// guarded (and cancellable) variant.
    pub fn query(&self, terms: &[(usize, f64)], top_k: usize) -> RankedList {
        self.query_vector(&self.fold_in(terms), top_k)
    }

    /// Guarded, cancellable [`LsiIndex::query`]: the query is validated
    /// up front ([`LsiError::BadQuery`] on out-of-range ids or non-finite
    /// weights) and the scoring loop polls `cancel` every
    /// [`CHECK_INTERVAL`](crate::cancel::CHECK_INTERVAL) documents,
    /// returning [`LsiError::Cancelled`] once the token fires.
    pub fn try_query(
        &self,
        terms: &[(usize, f64)],
        top_k: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<RankedList, LsiError> {
        let q = self.try_fold_in(terms)?;
        self.rank_by_vector(&q, top_k, None, cancel)
    }

    /// Folds a **new document** into the index (the classical LSI
    /// "folding-in" update): its representation `U_kᵀ d` is appended to the
    /// document set and becomes immediately searchable. Returns the new
    /// document's id.
    ///
    /// `terms` must be weighted consistently with the index's weighting
    /// scheme (raw counts are correct for [`lsi_ir::Weighting::Count`]).
    /// Folding-in does not update the spectral basis itself, so after many
    /// additions — or additions that shift the corpus's topic structure —
    /// the index should be rebuilt; this is the standard trade-off of the
    /// technique, not an implementation shortcut.
    pub fn add_document(&mut self, terms: &[(usize, f64)]) -> usize {
        let rep = self.fold_in(terms);
        let norm = vector::norm(&rep);
        self.doc_reps
            .push_row(&rep)
            // lsi-lint: allow(E1-panic-policy, "invariant: fold_in output length equals the index rank by construction")
            .expect("fold_in always returns a rank-length vector");
        self.doc_norms.push(norm);
        self.doc_reps.nrows() - 1
    }

    /// Guarded [`LsiIndex::add_document`]: rejects out-of-range term ids
    /// and non-finite weights with [`LsiError::BadQuery`] before anything
    /// is appended, so a malformed update can never poison the document
    /// set with NaN representations.
    pub fn try_add_document(&mut self, terms: &[(usize, f64)]) -> Result<usize, LsiError> {
        self.validate_query(terms)?;
        Ok(self.add_document(terms))
    }

    /// Appends a document whose LSI-space representation is already known
    /// (a length-`rank` coordinate vector), bypassing fold-in entirely.
    ///
    /// This is the transplant primitive of document-partitioned sharding:
    /// a shard receives the *bitwise* row another index computed, so the
    /// cosine scores it serves are identical to the donor's — scores are a
    /// pure function of the query fold-in bits and the stored row bits.
    /// Rejects wrong-length or non-finite vectors with
    /// [`LsiError::BadQuery`]. Returns the new document's id.
    pub fn add_document_vector(&mut self, coords: &[f64]) -> Result<usize, LsiError> {
        if coords.len() != self.rank() {
            return Err(BadQuery::WrongDimension {
                got: coords.len(),
                expected: self.rank(),
            }
            .into());
        }
        if coords.iter().any(|x| !x.is_finite()) {
            return Err(BadQuery::NonFiniteQuery.into());
        }
        let norm = vector::norm(coords);
        self.doc_reps
            .push_row(coords)
            // lsi-lint: allow(E1-panic-policy, "invariant: coords length was just checked against the rank")
            .expect("coords length equals the index rank");
        self.doc_norms.push(norm);
        Ok(self.doc_reps.nrows() - 1)
    }

    /// Retires document `doc` from retrieval: its representation row and
    /// norm are zeroed, and zero-norm documents are skipped by every
    /// cosine scan (the same mechanism that hides numerically-null
    /// documents). The id stays allocated — later documents keep their
    /// ids — so retirement composes with journal replay, which keys on
    /// the document count. Idempotent. Out-of-range ids are a typed
    /// [`LsiError::BadQuery`].
    pub fn retire_document(&mut self, doc: usize) -> Result<(), LsiError> {
        self.check_doc(doc)?;
        self.doc_reps.row_mut(doc).fill(0.0);
        self.doc_norms[doc] = 0.0;
        Ok(())
    }

    /// A zero-document index sharing this index's spectral basis (factors,
    /// configuration): the starting point for a document-partitioned shard,
    /// to be populated with [`LsiIndex::add_document_vector`]. Queries fold
    /// in through the identical `U_k`, so scores computed against
    /// transplanted rows match the donor index bitwise.
    pub fn basis_clone(&self) -> Self {
        // `vt` holds per-document loadings; the basis carries none, so it
        // shrinks to `k × 0` to keep the factor dimensions consistent
        // with the empty document set (storage validates exactly that).
        let factors = TruncatedSvd {
            u: self.factors.u.clone(),
            singular_values: self.factors.singular_values.clone(),
            vt: Matrix::zeros(self.rank(), 0),
        };
        LsiIndex {
            factors,
            doc_reps: Matrix::zeros(0, self.rank()),
            doc_norms: Vec::new(),
            config: self.config.clone(),
            solve_report: None,
            quarantined: Vec::new(),
        }
    }

    /// Terms most similar to term `t` in LSI space (cosine over rows of
    /// `U_k D_k`), excluding `t` itself. This is the term-side view of the
    /// synonymy effect: surface forms that share contexts land together.
    ///
    /// # Panics
    /// Panics if `t >= self.n_terms()`; use [`LsiIndex::try_similar_terms`]
    /// for the guarded (and cancellable) variant.
    pub fn similar_terms(&self, t: usize, top_k: usize) -> RankedList {
        self.similar_terms_inner(t, top_k, None)
            .expect("infallible without a cancel token")
    }

    /// Guarded, cancellable [`LsiIndex::similar_terms`]: out-of-range term
    /// ids are [`LsiError::BadQuery`], and the scoring loop polls `cancel`
    /// every [`CHECK_INTERVAL`](crate::cancel::CHECK_INTERVAL) terms.
    pub fn try_similar_terms(
        &self,
        t: usize,
        top_k: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<RankedList, LsiError> {
        self.check_term(t)?;
        self.similar_terms_inner(t, top_k, cancel)
    }

    fn similar_terms_inner(
        &self,
        t: usize,
        top_k: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<RankedList, LsiError> {
        // Term vectors are rows of U_k scaled by Σ; computing the cosines
        // with σ²-weighted dot products over U's (contiguous) rows avoids
        // materializing a scaled vector per candidate term.
        let k = self.rank();
        let s2: Vec<f64> = self.factors.singular_values.iter().map(|s| s * s).collect();
        let weighted_norm = |row: &[f64]| -> f64 {
            row.iter()
                .zip(&s2)
                .map(|(x, w)| x * x * w)
                .sum::<f64>()
                .sqrt()
        };
        let target = self.factors.u.row(t)[..k].to_vec();
        let tn = weighted_norm(&target);
        if tn <= 0.0 {
            return Ok(RankedList::default());
        }
        let mut hits: Vec<SearchHit> = Vec::new();
        for u in 0..self.n_terms() {
            if u % CHECK_INTERVAL == 0 {
                if let Some(token) = cancel {
                    token.check()?;
                }
            }
            if u == t {
                continue;
            }
            let row = &self.factors.u.row(u)[..k];
            let vn = weighted_norm(row);
            if vn > 0.0 {
                let dot: f64 = row
                    .iter()
                    .zip(&target)
                    .zip(&s2)
                    .map(|((a, b), w)| a * b * w)
                    .sum();
                hits.push(SearchHit {
                    doc: u,
                    score: (dot / (tn * vn)).clamp(-1.0, 1.0),
                });
            }
        }
        Ok(RankedList::from_hits(hits).truncated(top_k))
    }

    /// Rocchio relevance feedback in LSI space: moves a folded-in query
    /// toward the centroid of `relevant` documents and away from the
    /// centroid of `non_relevant` ones, returning the refined query vector
    /// (feed it to [`LsiIndex::query_vector`]).
    ///
    /// `alpha`, `beta`, `gamma` are the classical weights for the original
    /// query, the relevant centroid, and the non-relevant centroid
    /// (typical: 1.0, 0.75, 0.15). Empty feedback sets contribute nothing.
    pub fn rocchio(
        &self,
        query: &[f64],
        relevant: &[usize],
        non_relevant: &[usize],
        alpha: f64,
        beta: f64,
        gamma: f64,
    ) -> Vec<f64> {
        let k = self.rank();
        assert_eq!(query.len(), k, "rocchio: query must live in LSI space");
        let centroid = |docs: &[usize]| -> Vec<f64> {
            let mut c = vec![0.0; k];
            let mut count = 0usize;
            for &d in docs {
                if d < self.n_docs() {
                    vector::axpy(1.0, self.doc_reps.row(d), &mut c);
                    count += 1;
                }
            }
            if count > 0 {
                vector::scale(1.0 / count as f64, &mut c);
            }
            c
        };
        let rel = centroid(relevant);
        let nonrel = centroid(non_relevant);
        (0..k)
            .map(|i| alpha * query[i] + beta * rel[i] - gamma * nonrel[i])
            .collect()
    }

    /// Cosine-ranked retrieval for a query already in LSI space (e.g. a
    /// [`LsiIndex::rocchio`]-refined vector).
    ///
    /// # Panics
    /// Panics if `q.len() != self.rank()` — a term-space vector must go
    /// through [`LsiIndex::fold_in`] first.
    pub fn query_vector(&self, q: &[f64], top_k: usize) -> RankedList {
        assert_eq!(
            q.len(),
            self.rank(),
            "query_vector: query must live in LSI space (length = rank)"
        );
        self.rank_by_vector(q, top_k, None, None)
            .expect("infallible without a cancel token")
    }

    /// Guarded, cancellable [`LsiIndex::query_vector`]: dimension and
    /// finiteness problems are [`LsiError::BadQuery`] instead of panics,
    /// and the scoring loop polls `cancel` every
    /// [`CHECK_INTERVAL`](crate::cancel::CHECK_INTERVAL) documents.
    pub fn try_query_vector(
        &self,
        q: &[f64],
        top_k: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<RankedList, LsiError> {
        if q.len() != self.rank() {
            return Err(BadQuery::WrongDimension {
                got: q.len(),
                expected: self.rank(),
            }
            .into());
        }
        if q.iter().any(|x| !x.is_finite()) {
            return Err(BadQuery::NonFiniteQuery.into());
        }
        self.rank_by_vector(q, top_k, None, cancel)
    }

    /// Documents most similar to document `j` (excluding `j` itself).
    ///
    /// # Panics
    /// Panics if `j >= self.n_docs()`; use [`LsiIndex::try_similar_docs`]
    /// for the guarded (and cancellable) variant.
    pub fn similar_docs(&self, j: usize, top_k: usize) -> RankedList {
        let q = self.doc_vector(j).to_vec();
        self.rank_by_vector(&q, top_k, Some(j), None)
            .expect("infallible without a cancel token")
    }

    /// Guarded, cancellable [`LsiIndex::similar_docs`]: out-of-range
    /// document ids are [`LsiError::BadQuery`], and the scoring loop polls
    /// `cancel` every [`CHECK_INTERVAL`](crate::cancel::CHECK_INTERVAL)
    /// documents.
    pub fn try_similar_docs(
        &self,
        j: usize,
        top_k: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<RankedList, LsiError> {
        self.check_doc(j)?;
        let q = self.doc_reps.row(j).to_vec();
        self.rank_by_vector(&q, top_k, Some(j), cancel)
    }

    /// Cosine similarity between two indexed documents in LSI space.
    pub fn doc_cosine(&self, i: usize, j: usize) -> f64 {
        vector::cosine(self.doc_reps.row(i), self.doc_reps.row(j))
    }

    /// Angle (radians) between two documents in LSI space — the quantity
    /// tabulated by the paper's experiment.
    pub fn doc_angle(&self, i: usize, j: usize) -> f64 {
        vector::angle(self.doc_reps.row(i), self.doc_reps.row(j))
    }

    /// The shared cosine-scoring hot loop. With a token, cancellation is
    /// cooperative: the token is polled every
    /// [`CHECK_INTERVAL`](crate::cancel::CHECK_INTERVAL) documents, so an
    /// expired deadline stops the scan within one interval.
    fn rank_by_vector(
        &self,
        q: &[f64],
        top_k: usize,
        exclude: Option<usize>,
        cancel: Option<&CancelToken>,
    ) -> Result<RankedList, LsiError> {
        let qn = vector::norm(q);
        if qn <= 0.0 {
            return Ok(RankedList::default());
        }
        let mut hits: Vec<SearchHit> = Vec::new();
        for d in 0..self.n_docs() {
            if d % CHECK_INTERVAL == 0 {
                if let Some(token) = cancel {
                    token.check()?;
                }
            }
            if Some(d) == exclude || self.doc_norms[d] <= 0.0 {
                continue;
            }
            hits.push(SearchHit {
                doc: d,
                score: (vector::dot(q, self.doc_reps.row(d)) / (qn * self.doc_norms[d]))
                    .clamp(-1.0, 1.0),
            });
        }
        Ok(RankedList::from_hits(hits).truncated(top_k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SvdBackend;
    use lsi_corpus::{SeparableConfig, SeparableModel};
    use lsi_ir::Weighting;
    use rand::SeedableRng;

    fn small_corpus(seed: u64) -> (TermDocumentMatrix, SeparableModel) {
        let model = SeparableModel::build(SeparableConfig::small(4, 0.05)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let corpus = model.model().sample_corpus(60, &mut rng);
        (TermDocumentMatrix::from_generated(&corpus).unwrap(), model)
    }

    #[test]
    fn build_validates() {
        let (td, _) = small_corpus(1);
        assert!(matches!(
            LsiIndex::build(&td, LsiConfig::with_rank(0)),
            Err(LsiError::BadRank { .. })
        ));
        assert!(matches!(
            LsiIndex::build(&td, LsiConfig::with_rank(10_000)),
            Err(LsiError::BadRank { .. })
        ));
        let empty = TermDocumentMatrix::from_triplets(5, 0, &[]).unwrap();
        assert!(matches!(
            LsiIndex::build(&empty, LsiConfig::with_rank(1)),
            Err(LsiError::EmptyCorpus)
        ));
    }

    #[test]
    fn build_attaches_solve_report() {
        let (td, _) = small_corpus(21);
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(4)).unwrap();
        let report = idx.solve_report().expect("fresh build carries a report");
        assert_eq!(report.succeeded, Some(0));
        assert_eq!(report.requested_rank, 4);
        assert_eq!(report.achieved_rank, 4);
        assert_eq!(idx.build_status(), BuildStatus::Full);
    }

    #[test]
    fn rank_deficient_corpus_builds_degraded() {
        // Two identical documents over three terms: true rank 1.
        let td = TermDocumentMatrix::from_triplets(
            3,
            2,
            &[(0, 0, 1.0), (1, 0, 2.0), (0, 1, 1.0), (1, 1, 2.0)],
        )
        .unwrap();
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(2)).unwrap();
        assert_eq!(
            idx.build_status(),
            BuildStatus::Degraded { achieved_rank: 1 }
        );
        let report = idx.solve_report().unwrap();
        assert_eq!(report.achieved_rank, 1);
        assert!(report.degraded());
        // Retrieval still works in the 1-dimensional live space.
        assert!(idx.doc_cosine(0, 1) > 0.999);
    }

    #[test]
    fn injected_transient_fault_still_builds_verified() {
        use lsi_linalg::faults::{FaultKind, FaultPlan};
        let (td, _) = small_corpus(22);
        let clean = LsiIndex::build(&td, LsiConfig::with_rank(4)).unwrap();
        let faults =
            FaultPlan::new(3).with_fault(FaultKind::NanInjection { probability: 0.2 }, 4, 8);
        let idx =
            LsiIndex::build_with_injected_faults(&td, LsiConfig::with_rank(4), faults).unwrap();
        for (a, b) in clean.singular_values().iter().zip(idx.singular_values()) {
            assert!((a - b).abs() < 1e-6 * a.max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn injected_persistent_fault_exhausts_with_typed_error() {
        use lsi_linalg::faults::{FaultKind, FaultPlan};
        let (td, _) = small_corpus(23);
        let faults = FaultPlan::new(4).with_fault(
            FaultKind::NanInjection { probability: 0.5 },
            0,
            usize::MAX,
        );
        match LsiIndex::build_with_injected_faults(&td, LsiConfig::with_rank(4), faults) {
            Err(LsiError::SolverExhausted(report)) => {
                assert!(!report.attempts.is_empty());
                assert!(report.succeeded.is_none());
            }
            other => panic!("expected SolverExhausted, got {other:?}"),
        }
    }

    #[test]
    fn backends_agree_on_singular_values() {
        let (td, _) = small_corpus(2);
        let dense = LsiIndex::build(
            &td,
            LsiConfig {
                rank: 4,
                weighting: Weighting::Count,
                backend: SvdBackend::Dense,
            },
        )
        .unwrap();
        let lanczos = LsiIndex::build(&td, LsiConfig::with_rank(4)).unwrap();
        for (a, b) in dense
            .singular_values()
            .iter()
            .zip(lanczos.singular_values())
        {
            assert!((a - b).abs() < 1e-6 * a.max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn doc_vectors_are_projected_columns() {
        let (td, _) = small_corpus(3);
        let idx = LsiIndex::build(
            &td,
            LsiConfig {
                rank: 4,
                weighting: Weighting::Count,
                backend: SvdBackend::Dense,
            },
        )
        .unwrap();
        // Row j of doc_reps == U_kᵀ a_j.
        let dense = td.to_dense();
        for j in [0usize, 5, 17] {
            let proj = idx.fold_in_dense(&dense.col(j)).unwrap();
            let rep = idx.doc_vector(j);
            for (a, b) in proj.iter().zip(rep) {
                assert!((a - b).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn same_topic_docs_score_higher() {
        let (td, _) = small_corpus(4);
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(4)).unwrap();
        let labels = td.topic_labels();
        // For each document, its most-similar neighbor should share its topic
        // in the overwhelming majority of cases.
        let mut good = 0;
        let mut total = 0;
        for j in 0..td.n_docs() {
            let sims = idx.similar_docs(j, 1);
            if let Some(top) = sims.hits().first() {
                total += 1;
                if labels[top.doc] == labels[j] {
                    good += 1;
                }
            }
        }
        assert!(
            good as f64 >= 0.95 * total as f64,
            "only {good}/{total} nearest neighbors on-topic"
        );
    }

    #[test]
    fn query_retrieves_topic_documents() {
        let (td, model) = small_corpus(6);
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(4)).unwrap();
        // Query: a few primary terms of topic 2.
        let q: Vec<(usize, f64)> = model.primary_set(2)[..5]
            .iter()
            .map(|&t| (t, 1.0))
            .collect();
        let res = idx.query(&q, 10);
        assert!(!res.is_empty());
        let labels = td.topic_labels();
        let on_topic = res
            .hits()
            .iter()
            .filter(|h| labels[h.doc] == Some(2))
            .count();
        assert!(on_topic >= 9, "only {on_topic}/10 of top hits on topic 2");
    }

    #[test]
    fn fold_in_ignores_oov_and_zero() {
        let (td, _) = small_corpus(6);
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
        let empty = idx.fold_in(&[(99_999, 1.0), (0, 0.0)]);
        assert!(empty.iter().all(|&x| x == 0.0));
        assert!(idx.query(&[(99_999, 1.0)], 5).is_empty());
    }

    #[test]
    fn term_vector_shape_and_scaling() {
        let (td, _) = small_corpus(7);
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
        let tv = idx.term_vector(0);
        assert_eq!(tv.len(), 3);
        for (i, &x) in tv.iter().enumerate() {
            let expect = idx.factors().u[(0, i)] * idx.singular_values()[i];
            assert!((x - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn rocchio_feedback_improves_topic_focus() {
        let (td, model) = small_corpus(6);
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(4)).unwrap();
        let labels = td.topic_labels();

        // A deliberately weak query: one topic-0 term plus one topic-1 term.
        let q0 = idx.fold_in(&[
            (model.primary_set(0)[0], 1.0),
            (model.primary_set(1)[0], 1.0),
        ]);
        let before = idx.query_vector(&q0, 10);
        // Feedback: mark the topic-0 hits relevant, topic-1 hits not.
        let rel: Vec<usize> = before
            .hits()
            .iter()
            .filter(|h| labels[h.doc] == Some(0))
            .map(|h| h.doc)
            .collect();
        let nonrel: Vec<usize> = before
            .hits()
            .iter()
            .filter(|h| labels[h.doc] == Some(1))
            .map(|h| h.doc)
            .collect();
        let refined = idx.rocchio(&q0, &rel, &nonrel, 1.0, 0.75, 0.15);
        let after = idx.query_vector(&refined, 10);

        let on_topic = |r: &lsi_ir::retrieval::RankedList| {
            r.hits().iter().filter(|h| labels[h.doc] == Some(0)).count()
        };
        assert!(
            on_topic(&after) >= on_topic(&before),
            "feedback did not help: {} -> {}",
            on_topic(&before),
            on_topic(&after)
        );
        // Empty feedback is the identity (up to alpha scaling).
        let same = idx.rocchio(&q0, &[], &[], 1.0, 0.75, 0.15);
        for (a, b) in same.iter().zip(&q0) {
            assert!((a - b).abs() < 1e-12);
        }
        // Out-of-range doc ids are ignored, not a panic.
        let _ = idx.rocchio(&q0, &[999_999], &[], 1.0, 0.75, 0.15);
    }

    #[test]
    fn doc_cosine_and_angle_consistent() {
        let (td, _) = small_corpus(8);
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(4)).unwrap();
        let c = idx.doc_cosine(0, 1);
        let a = idx.doc_angle(0, 1);
        assert!((a.cos() - c).abs() < 1e-10);
        assert!((idx.doc_cosine(2, 2) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn add_document_folds_in_and_is_searchable() {
        let (td, model) = small_corpus(6);
        let mut idx = LsiIndex::build(&td, LsiConfig::with_rank(4)).unwrap();
        let before = idx.n_docs();

        // A fresh document made of topic 1's primary terms.
        let new_doc: Vec<(usize, f64)> = model.primary_set(1)[..6]
            .iter()
            .map(|&t| (t, 2.0))
            .collect();
        let id = idx.add_document(&new_doc);
        assert_eq!(id, before);
        assert_eq!(idx.n_docs(), before + 1);

        // Its nearest neighbors are topic-1 documents.
        let sims = idx.similar_docs(id, 5);
        let labels = td.topic_labels();
        for hit in sims.hits() {
            assert_eq!(labels[hit.doc], Some(1), "off-topic neighbor {}", hit.doc);
        }
        // And a topic-1 query retrieves it.
        let res = idx.query(&new_doc, idx.n_docs());
        assert!(res.doc_ids().contains(&id));
    }

    #[test]
    fn similar_terms_finds_cohort() {
        let (td, model) = small_corpus(6);
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(4)).unwrap();
        let t = model.primary_set(2)[0];
        let sims = idx.similar_terms(t, 10);
        assert!(!sims.is_empty());
        // Top similar terms belong to the same topic's primary set.
        let primary = model.primary_set(2);
        let on_topic = sims
            .hits()
            .iter()
            .take(5)
            .filter(|h| primary.contains(&h.doc))
            .count();
        assert!(on_topic >= 4, "only {on_topic}/5 on-topic similar terms");
        // Never returns the query term itself.
        assert!(sims.hits().iter().all(|h| h.doc != t));
    }

    #[test]
    fn guarded_variants_reject_malformed_queries() {
        let (td, _) = small_corpus(31);
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
        let n = idx.n_terms();
        let m = idx.n_docs();

        // Out-of-range term ids.
        assert_eq!(
            idx.try_query(&[(n, 1.0)], 5, None),
            Err(LsiError::BadQuery(BadQuery::TermOutOfRange {
                term: n,
                n_terms: n
            }))
        );
        assert!(matches!(
            idx.try_fold_in(&[(n + 7, 1.0)]),
            Err(LsiError::BadQuery(BadQuery::TermOutOfRange { .. }))
        ));
        assert!(matches!(
            idx.try_term_vector(n),
            Err(LsiError::BadQuery(BadQuery::TermOutOfRange { .. }))
        ));
        assert!(matches!(
            idx.try_similar_terms(n, 5, None),
            Err(LsiError::BadQuery(BadQuery::TermOutOfRange { .. }))
        ));

        // Non-finite weights.
        assert!(matches!(
            idx.try_query(&[(0, f64::NAN)], 5, None),
            Err(LsiError::BadQuery(BadQuery::NonFiniteWeight { term: 0 }))
        ));
        assert!(matches!(
            idx.try_query(&[(1, f64::INFINITY)], 5, None),
            Err(LsiError::BadQuery(BadQuery::NonFiniteWeight { term: 1 }))
        ));

        // Out-of-range document ids.
        assert!(matches!(
            idx.try_doc_vector(m),
            Err(LsiError::BadQuery(BadQuery::DocOutOfRange { .. }))
        ));
        assert!(matches!(
            idx.try_similar_docs(m + 3, 5, None),
            Err(LsiError::BadQuery(BadQuery::DocOutOfRange { .. }))
        ));

        // Dense queries: wrong dimension / non-finite components.
        assert!(matches!(
            idx.try_query_vector(&[1.0; 7], 5, None),
            Err(LsiError::BadQuery(BadQuery::WrongDimension {
                got: 7,
                expected: 3
            }))
        ));
        assert!(matches!(
            idx.try_query_vector(&[f64::NAN, 0.0, 0.0], 5, None),
            Err(LsiError::BadQuery(BadQuery::NonFiniteQuery))
        ));

        // Malformed updates never mutate the index.
        let mut idx2 = idx.clone();
        assert!(idx2.try_add_document(&[(n, 1.0)]).is_err());
        assert!(idx2.try_add_document(&[(0, f64::NAN)]).is_err());
        assert_eq!(idx2.n_docs(), m);
    }

    #[test]
    fn guarded_variants_match_unguarded_on_clean_input() {
        let (td, _) = small_corpus(32);
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
        let q = [(0usize, 1.0), (3, 2.0)];
        let a = idx.query(&q, 10);
        let b = idx.try_query(&q, 10, None).unwrap();
        assert_eq!(a.doc_ids(), b.doc_ids());
        assert_eq!(
            idx.similar_docs(2, 5).doc_ids(),
            idx.try_similar_docs(2, 5, None).unwrap().doc_ids()
        );
        assert_eq!(
            idx.similar_terms(1, 5).doc_ids(),
            idx.try_similar_terms(1, 5, None).unwrap().doc_ids()
        );
        assert_eq!(idx.term_vector(2), idx.try_term_vector(2).unwrap());
        assert_eq!(idx.doc_vector(3), idx.try_doc_vector(3).unwrap());
        let mut g = idx.clone();
        let mut u = idx.clone();
        assert_eq!(
            g.try_add_document(&[(0, 2.0)]).unwrap(),
            u.add_document(&[(0, 2.0)])
        );
        assert_eq!(g.doc_vector(g.n_docs() - 1), u.doc_vector(u.n_docs() - 1));
    }

    #[test]
    fn cancelled_token_stops_scoring_with_typed_error() {
        use crate::cancel::CancelToken;
        let (td, _) = small_corpus(33);
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            idx.try_query(&[(0, 1.0)], 5, Some(&token)),
            Err(LsiError::Cancelled)
        );
        assert_eq!(
            idx.try_similar_docs(0, 5, Some(&token)),
            Err(LsiError::Cancelled)
        );
        assert_eq!(
            idx.try_similar_terms(0, 5, Some(&token)),
            Err(LsiError::Cancelled)
        );
        // An already-expired deadline behaves identically.
        let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
        assert_eq!(
            idx.try_query_vector(&[1.0, 0.0, 0.0], 5, Some(&expired)),
            Err(LsiError::Cancelled)
        );
        // A live token changes nothing.
        let live = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        assert_eq!(
            idx.try_query(&[(0, 1.0)], 5, Some(&live))
                .unwrap()
                .doc_ids(),
            idx.query(&[(0, 1.0)], 5).doc_ids()
        );
    }

    #[test]
    fn retrieval_edge_cases_return_typed_results() {
        let (td, _) = small_corpus(34);
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
        let m = idx.n_docs();

        // top_k = 0 is an empty list everywhere, never a panic.
        assert!(idx.query(&[(0, 1.0)], 0).is_empty());
        assert!(idx.similar_docs(0, 0).is_empty());
        assert!(idx.similar_terms(0, 0).is_empty());
        assert!(idx.try_similar_docs(0, 0, None).unwrap().is_empty());

        // top_k > n_docs returns everything that scored, bounded by m.
        let all = idx.try_similar_docs(0, m + 100, None).unwrap();
        assert!(all.len() <= m);
        assert!(!all.is_empty());

        // Rocchio with empty feedback sets on the full surface.
        let q = idx.fold_in(&[(0, 1.0)]);
        let same = idx.rocchio(&q, &[], &[], 1.0, 0.75, 0.15);
        assert_eq!(same.len(), idx.rank());
        // Entirely out-of-range feedback sets are ignored, not a panic.
        let refined = idx.rocchio(&q, &[m + 1, m + 2], &[m + 9], 1.0, 0.75, 0.15);
        for (a, b) in refined.iter().zip(&q) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn degraded_index_query_surface_stays_typed() {
        // Rank-deficient corpus: requested rank 2, true rank 1.
        let td = TermDocumentMatrix::from_triplets(
            3,
            2,
            &[(0, 0, 1.0), (1, 0, 2.0), (0, 1, 1.0), (1, 1, 2.0)],
        )
        .unwrap();
        let idx = LsiIndex::build(&td, LsiConfig::with_rank(2)).unwrap();
        assert!(matches!(idx.build_status(), BuildStatus::Degraded { .. }));
        // Every retrieval entry point still answers in the live subspace.
        assert!(!idx.try_query(&[(0, 1.0)], 5, None).unwrap().is_empty());
        assert!(!idx.try_similar_docs(0, 5, None).unwrap().is_empty());
        let _ = idx.try_similar_terms(0, 5, None).unwrap();
        assert!(idx.try_query(&[(0, 1.0)], 0, None).unwrap().is_empty());
        let oversized = idx.try_similar_docs(0, 99, None).unwrap();
        assert!(oversized.len() <= idx.n_docs());
    }

    #[test]
    fn weighting_changes_factors() {
        let (td, _) = small_corpus(9);
        let count = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
        let tfidf = LsiIndex::build(
            &td,
            LsiConfig {
                rank: 3,
                weighting: Weighting::TfIdf,
                backend: SvdBackend::default(),
            },
        )
        .unwrap();
        assert_ne!(count.singular_values()[0], tfidf.singular_values()[0]);
    }
}
