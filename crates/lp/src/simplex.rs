//! Two-phase primal simplex over a sparse-assembled standard form.
//!
//! Problem data arrives as a CSR [`StandardForm`] (see
//! [`crate::standard_form`]) so assembly stays `O(nnz)`; the solver then
//! keeps a full dense tableau (constraint matrix, right-hand side,
//! reduced-cost row) in canonical form with respect to the current basis
//! — pivoting fills in sparsity, so the working tableau is the one
//! deliberately dense object on the path, and it is trimmed to the
//! surviving columns after phase 1 (artificials are physically dropped).
//! Phase 1 minimizes the sum of artificial variables from an
//! all-slack/all-artificial start; phase 2 minimizes the real objective.
//! Pricing is Dantzig's rule with an automatic switch to Bland's rule
//! after a run of degenerate pivots (guaranteeing termination), switching
//! back once progress resumes.

use socbuf_linalg::{Lu, Matrix, SparseLu};

use crate::decompose::ExecutorHandle;
use crate::revised::{run_revised, LpEngine, PricingCounts};
use crate::solution::LpSolution;
use crate::standard_form::{build_standard_form, StandardForm};
use crate::LpError;
use crate::LpProblem;

/// The feasibility/optimality tolerance of every engine.
pub(crate) const TOLERANCE: f64 = 1e-9;

/// Consecutive degenerate pivots after which both engines switch
/// pricing and the ratio test from Dantzig's rule to Bland's
/// smallest-index rule, which guarantees termination.
pub(crate) const STALL_SWITCH: usize = 40;

/// Tuning knobs for the LP engines (all three; see [`LpEngine`]).
///
/// The anti-cycling rule is fixed: after 40 consecutive degenerate
/// pivots both engines price and pick the leaving row by Bland's
/// smallest-index rule until a pivot makes strict progress, which
/// guarantees termination. No engine re-perturbs or retries: the
/// perturbation set here is the only change made to the posed
/// right-hand side, and a failure is reported as it happened.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Maximum number of pivots across both phases. `0` selects an
    /// automatic limit of `max(20_000, 50 * (rows + cols))`.
    pub max_iterations: usize,
    /// Magnitude of the deterministic right-hand-side perturbation used
    /// to break massive degeneracy (`0.0` = off, the default). Highly
    /// degenerate equality systems — occupation-measure LPs chief among
    /// them — stall for tens of thousands of pivots without it. The
    /// returned solution solves the perturbed problem; primal values are
    /// within `O(perturbation)` of an exact vertex, which callers that
    /// enable this must tolerate (the CTMDP pipeline renormalizes its
    /// occupation measures afterwards). Both engines perturb with the
    /// same deterministic formula, so they solve the identical problem.
    pub perturbation: f64,
    /// Whether to equilibrate the standard form before solving
    /// (default ON): geometric-mean row/column scaling with exact
    /// power-of-two factors, applied only when the data's
    /// nonzero-magnitude spread exceeds a trigger (`1e4`), and inverted
    /// at extraction so values, duals and reduced costs are reported in
    /// original units. Scaling never changes what is solved — the
    /// scaled problem is exactly equivalent — only how well conditioned
    /// the arithmetic is; well-conditioned instances are bit-identical
    /// with the knob on or off. See `crate::standard_form`'s module
    /// docs for the full contract.
    pub equilibrate: bool,
    /// Which solver implementation to run; see [`LpEngine`].
    pub engine: LpEngine,
    /// Decomposed engine only: where the independent per-block solves of
    /// one multiplier iteration run. The default serial handle evaluates
    /// blocks in index order on the calling thread; attaching a pool
    /// (e.g. `socbuf-sweep`'s `WorkPool`) fans them out. Executors never
    /// change results — each block owns its slot — only wall time. The
    /// other engines ignore this.
    pub executor: ExecutorHandle,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 0,
            perturbation: 0.0,
            equilibrate: true,
            engine: LpEngine::default(),
            executor: ExecutorHandle::serial(),
        }
    }
}

impl SimplexOptions {
    /// The given options with the engine swapped — convenience for
    /// oracle tests that run both engines on identical settings.
    pub fn with_engine(&self, engine: LpEngine) -> SimplexOptions {
        SimplexOptions {
            engine,
            ..self.clone()
        }
    }
}

/// The absolute threshold separating round-off from structural
/// breakdown, shared by both engines (phase-1 infeasibility verdicts
/// and the final redundancy/artificial-mass bounds all derive from it).
/// One definition for the same reason `StandardForm::perturbed_b` has
/// one: an engine-local copy would let the two engines' status verdicts
/// drift apart silently, breaking the cross-engine agreement contract
/// the oracle suites pin.
pub(crate) fn breakdown_threshold(perturbation: f64, m: usize) -> f64 {
    TOLERANCE.max(1e-7).max(perturbation * 50.0 * m as f64)
}

/// Final state of a simplex run, in standard-form coordinates.
pub(crate) struct BasicSolution {
    /// Value of every standard-form column (structural + slack).
    pub x: Vec<f64>,
    /// Basis column per active row (`usize::MAX` marks a deactivated row).
    pub basis: Vec<usize>,
    /// `false` for rows found redundant during phase 1.
    pub row_active: Vec<bool>,
    /// Total pivot count over both phases.
    pub iterations: usize,
    /// What the revised engine's pricing did (zeros from the tableau).
    pub pricing: PricingCounts,
    /// A fresh factorization of the final basis, when the engine ends on
    /// one it priced optimal (the revised engine; see
    /// [`crate::PreparedLp`] for who keeps it).
    pub factor: Option<SparseLu>,
}

struct Tableau {
    /// `m x total_cols` constraint part, kept canonical w.r.t. the basis.
    a: Matrix,
    b: Vec<f64>,
    /// Current reduced-cost row.
    d: Vec<f64>,
    basis: Vec<usize>,
    active: Vec<bool>,
    /// Columns that may never (re-)enter the basis (artificials in ph. 2).
    banned: Vec<bool>,
    tol: f64,
}

impl Tableau {
    fn pivot(&mut self, row: usize, col: usize) {
        let m = self.a.rows();
        let ncols = self.a.cols();
        let piv = self.a[(row, col)];
        debug_assert!(piv.abs() > self.tol);
        let inv = 1.0 / piv;
        for j in 0..ncols {
            self.a[(row, j)] *= inv;
        }
        self.a[(row, col)] = 1.0;
        self.b[row] *= inv;
        for i in 0..m {
            if i == row || !self.active[i] {
                continue;
            }
            let f = self.a[(i, col)];
            if f == 0.0 {
                continue;
            }
            for j in 0..ncols {
                let v = self.a[(row, j)];
                if v != 0.0 {
                    self.a[(i, j)] -= f * v;
                }
            }
            self.a[(i, col)] = 0.0;
            self.b[i] -= f * self.b[row];
            if self.b[i].abs() < 1e-13 {
                self.b[i] = 0.0;
            }
        }
        let f = self.d[col];
        if f != 0.0 {
            for j in 0..ncols {
                let v = self.a[(row, j)];
                if v != 0.0 {
                    self.d[j] -= f * v;
                }
            }
            self.d[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// Recomputes the reduced-cost row `d = c - c_B B⁻¹ A` for the given
    /// phase costs, using the canonical tableau.
    fn canonicalize_costs(&mut self, c: &[f64]) {
        self.d.copy_from_slice(c);
        let m = self.a.rows();
        for i in 0..m {
            if !self.active[i] {
                continue;
            }
            let jb = self.basis[i];
            let cb = c[jb];
            if cb == 0.0 {
                continue;
            }
            for j in 0..self.a.cols() {
                let v = self.a[(i, j)];
                if v != 0.0 {
                    self.d[j] -= cb * v;
                }
            }
        }
        // The basic columns must have exactly zero reduced cost.
        for i in 0..m {
            if self.active[i] {
                self.d[self.basis[i]] = 0.0;
            }
        }
    }

    /// Dantzig pricing: most negative reduced cost.
    fn enter_dantzig(&self) -> Option<usize> {
        let mut best = None;
        let mut best_val = -self.tol;
        for j in 0..self.a.cols() {
            if self.banned[j] {
                continue;
            }
            if self.d[j] < best_val {
                best_val = self.d[j];
                best = Some(j);
            }
        }
        best
    }

    /// Bland pricing: first negative reduced cost.
    fn enter_bland(&self) -> Option<usize> {
        (0..self.a.cols()).find(|&j| !self.banned[j] && self.d[j] < -self.tol)
    }

    /// Two-pass (Harris-style) ratio test. Pass 1 finds the minimum
    /// ratio; pass 2 picks, among rows within a small relative window of
    /// it, the one with the largest pivot element — which keeps the
    /// factors bounded and avoids the tiny-pivot death spiral on
    /// near-degenerate problems. Under `bland` the tie-break flips to
    /// the smallest basis index: Bland's rule only guarantees
    /// termination when it governs **both** the entering and the
    /// leaving choice, so the stalled regime must use it here too.
    /// Returns `None` if the column is unbounded.
    fn leave(&self, col: usize, bland: bool) -> Option<usize> {
        let mut min_ratio = f64::INFINITY;
        for i in 0..self.a.rows() {
            if !self.active[i] {
                continue;
            }
            let aij = self.a[(i, col)];
            if aij > self.tol {
                min_ratio = min_ratio.min(self.b[i] / aij);
            }
        }
        if !min_ratio.is_finite() {
            return None;
        }
        let window = self.tol * (1.0 + min_ratio.abs());
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.a.rows() {
            if !self.active[i] {
                continue;
            }
            let aij = self.a[(i, col)];
            if aij > self.tol && self.b[i] / aij <= min_ratio + window {
                let better = match best {
                    None => true,
                    Some((bi, bv)) => {
                        if bland {
                            self.basis[i] < self.basis[bi]
                        } else {
                            aij > bv || (aij == bv && self.basis[i] < self.basis[bi])
                        }
                    }
                };
                if better {
                    best = Some((i, aij));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Worst negative canonical rhs over active rows, if any — negative
    /// `b[i]` on the final basis means a silently violated constraint
    /// (the same Harris-window failure mode the revised engine's
    /// `finish_phase_two` repairs).
    fn worst_infeasible_row(&self) -> Option<usize> {
        let mut worst: Option<(usize, f64)> = None;
        for i in 0..self.a.rows() {
            if self.active[i] && self.b[i] < -self.tol && worst.is_none_or(|(_, w)| self.b[i] < w) {
                worst = Some((i, self.b[i]));
            }
        }
        worst.map(|(i, _)| i)
    }

    /// Rebuilds the canonical form of the active rows from the
    /// *original* standard-form data: factor the current basis matrix
    /// densely and recompute `B⁻¹A` and `B⁻¹b`. The dense tableau
    /// carries its canonical form incrementally through every pivot and
    /// never refactorizes, so on ill-conditioned data the canonical
    /// view drifts away from the equations it claims to represent —
    /// this is the tableau's equivalent of the revised engine's
    /// `refactorize`, invoked only by the final-honesty loop (it costs
    /// about one full pivot). Returns `false` (tableau untouched) when
    /// the basis matrix is numerically singular.
    fn recanonicalize(&mut self, sf: &StandardForm, b0: &[f64]) -> bool {
        let m = self.a.rows();
        let n = self.a.cols();
        let act: Vec<usize> = (0..m).filter(|&i| self.active[i]).collect();
        let k = act.len();
        if k == 0 {
            return true;
        }
        let mut col_of = vec![usize::MAX; n];
        for (pc, &i) in act.iter().enumerate() {
            debug_assert!(self.basis[i] < n, "artificial in trimmed basis");
            col_of[self.basis[i]] = pc;
        }
        let mut bmat = Matrix::zeros(k, k);
        for (pr, &i) in act.iter().enumerate() {
            for (j, v) in sf.a.iter_row(i) {
                if col_of[j] != usize::MAX {
                    bmat[(pr, col_of[j])] = v;
                }
            }
        }
        let Ok(lu) = Lu::factor(&bmat) else {
            return false;
        };
        let rhs: Vec<f64> = act.iter().map(|&i| b0[i]).collect();
        let Ok(bb) = lu.solve(&rhs) else {
            return false;
        };
        // Gather the active rows densely once (O(nnz)), then one LU
        // solve per structural/slack column.
        let mut acts = Matrix::zeros(k, n);
        for (pr, &i) in act.iter().enumerate() {
            for (j, v) in sf.a.iter_row(i) {
                acts[(pr, j)] = v;
            }
        }
        let mut col = vec![0.0; k];
        for j in 0..n {
            for (pr, c) in col.iter_mut().enumerate() {
                *c = acts[(pr, j)];
            }
            let Ok(sol) = lu.solve(&col) else {
                return false;
            };
            for (pr, &i) in act.iter().enumerate() {
                self.a[(i, j)] = sol[pr];
            }
        }
        for (pr, &i) in act.iter().enumerate() {
            self.b[i] = bb[pr];
        }
        true
    }

    /// Worst active-row residual of the current basic solution against
    /// the **original** standard-form data, normalized per row by
    /// `1 + |b| + Σ|a_ij·x_j|`. Nonzero drift means the canonical
    /// tableau no longer represents the equations it started from.
    fn canonical_drift(&self, sf: &StandardForm, b0: &[f64]) -> f64 {
        let m = self.a.rows();
        let n = self.a.cols();
        let mut x = vec![0.0; n];
        for i in 0..m {
            if self.active[i] && self.basis[i] < n {
                x[self.basis[i]] = self.b[i].max(0.0);
            }
        }
        let mut worst = 0.0_f64;
        for i in 0..m {
            if !self.active[i] {
                continue;
            }
            let mut ax = 0.0;
            let mut norm = 0.0;
            for (j, v) in sf.a.iter_row(i) {
                ax += v * x[j];
                norm += (v * x[j]).abs();
            }
            worst = worst.max((ax - b0[i]).abs() / (1.0 + b0[i].abs() + norm));
        }
        worst
    }

    /// Bounded dual-simplex repair of primal infeasibility on the final
    /// tableau — the port of the revised engine's post-phase-2
    /// restoration. At a phase-2 optimum the reduced-cost row is dual
    /// feasible (`d ≥ −tol`), so pivoting the most negative basic value
    /// out (entering column = dual ratio test `min d_j / −a_rj` over
    /// `a_rj < −tol`, negatives clamped, ties by lowest column index)
    /// walks back to feasibility without destroying optimality; the
    /// caller re-runs phase 2 afterwards to re-confirm. Returns `true`
    /// when the tableau is primal feasible, `false` when the repair
    /// gave up (no eligible entering column or the pivot budget ran
    /// out) — the caller then keeps the historical soft behavior rather
    /// than failing the solve.
    fn dual_repair(&mut self, max_pivots: usize) -> bool {
        let mut pivots = 0usize;
        loop {
            let Some(r) = self.worst_infeasible_row() else {
                return true;
            };
            if pivots >= max_pivots {
                return false;
            }
            let mut enter: Option<(usize, f64)> = None;
            for j in 0..self.a.cols() {
                if self.banned[j] {
                    continue;
                }
                let arj = self.a[(r, j)];
                if arj < -self.tol {
                    let ratio = self.d[j].max(0.0) / -arj;
                    if enter.is_none_or(|(_, best)| ratio < best) {
                        enter = Some((j, ratio));
                    }
                }
            }
            let Some((q, _)) = enter else {
                return false;
            };
            self.pivot(r, q);
            pivots += 1;
        }
    }
}

enum PhaseOutcome {
    Optimal,
    Unbounded(usize),
}

fn run_phase(
    t: &mut Tableau,
    iterations: &mut usize,
    max_iterations: usize,
) -> Result<PhaseOutcome, LpError> {
    let mut stall = 0usize;
    loop {
        if *iterations >= max_iterations {
            return Err(LpError::IterationLimit {
                limit: max_iterations,
            });
        }
        let stalled = stall >= STALL_SWITCH;
        let enter = if stalled {
            t.enter_bland()
        } else {
            t.enter_dantzig()
        };
        let Some(col) = enter else {
            return Ok(PhaseOutcome::Optimal);
        };
        let Some(row) = t.leave(col, stalled) else {
            return Ok(PhaseOutcome::Unbounded(col));
        };
        let degenerate = t.b[row].abs() <= t.tol;
        t.pivot(row, col);
        *iterations += 1;
        if degenerate {
            stall += 1;
        } else {
            stall = 0;
        }
    }
}

/// Runs two-phase simplex on a standard form. Exposed crate-internally so
/// the solution module can rebuild duals from the same data.
pub(crate) fn run_simplex(
    sf: &StandardForm,
    options: &SimplexOptions,
) -> Result<BasicSolution, LpError> {
    let m = sf.a.rows();
    let n_sf = sf.a.cols();
    let n_art: usize = sf.needs_artificial.iter().filter(|&&x| x).count();
    let total = n_sf + n_art;
    let tol = TOLERANCE;
    let max_iterations = if options.max_iterations == 0 {
        20_000.max(50 * (m + total))
    } else {
        options.max_iterations
    };

    // Assemble the phase-1 tableau [A | I_artificial] by scattering the
    // CSR rows — O(nnz) writes into the (deliberately dense) tableau.
    let mut a = Matrix::zeros(m, total);
    for i in 0..m {
        for (j, v) in sf.a.iter_row(i) {
            a[(i, j)] = v;
        }
    }
    let mut basis = vec![usize::MAX; m];
    let mut next_art = n_sf;
    for i in 0..m {
        if sf.needs_artificial[i] {
            a[(i, next_art)] = 1.0;
            basis[i] = next_art;
            next_art += 1;
        } else {
            let sc = sf.slack_col[i].expect("row without artificial must have a slack");
            basis[i] = sc;
        }
    }

    // Deterministic degeneracy-breaking perturbation, shared with the
    // revised engine so both solve the identical problem. A copy of the
    // pre-pivot rhs survives for the deactivated-row residual check at
    // extraction.
    let b = sf.perturbed_b(options.perturbation);
    let b0 = b.clone();
    let mut t = Tableau {
        a,
        b,
        d: vec![0.0; total],
        basis,
        active: vec![true; m],
        banned: vec![false; total],
        tol,
    };

    let mut iterations = 0usize;

    // ---- Phase 1: minimize the sum of artificials. -------------------
    if n_art > 0 {
        let mut c1 = vec![0.0; total];
        for j in n_sf..total {
            c1[j] = 1.0;
        }
        // Incremental reduced-cost updates drift over thousands of
        // pivots; an "unbounded" verdict is only trusted after a fresh
        // canonicalization reproduces it.
        let mut verdict = PhaseOutcome::Optimal;
        for attempt in 0..2 {
            t.canonicalize_costs(&c1);
            verdict = run_phase(&mut t, &mut iterations, max_iterations)?;
            match verdict {
                PhaseOutcome::Optimal => break,
                PhaseOutcome::Unbounded(_) if attempt == 0 => continue,
                PhaseOutcome::Unbounded(_) => {}
            }
        }
        if let PhaseOutcome::Unbounded(_) = verdict {
            // Phase-1 objective is bounded below by 0; cannot happen.
            return Err(LpError::InvalidModel(
                "phase 1 reported unbounded; numerical breakdown".into(),
            ));
        }
        let phase1_obj: f64 = (0..m)
            .filter(|&i| t.active[i] && t.basis[i] >= n_sf)
            .map(|i| t.b[i])
            .sum();
        let infeas_threshold = breakdown_threshold(options.perturbation, m);
        if phase1_obj > infeas_threshold {
            return Err(LpError::Infeasible {
                residual: phase1_obj,
            });
        }
        // Drive remaining artificials out of the basis, pivoting on the
        // largest-magnitude eligible entry (conditioning); rows where no
        // pivot exists are redundant and get deactivated.
        for i in 0..m {
            if !t.active[i] || t.basis[i] < n_sf {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for j in 0..n_sf {
                let v = t.a[(i, j)].abs();
                if v > tol.max(1e-7) && best.is_none_or(|(_, bv)| v > bv) {
                    best = Some((j, v));
                }
            }
            match best {
                Some((j, _)) => t.pivot(i, j),
                None => {
                    t.active[i] = false;
                    t.basis[i] = usize::MAX;
                }
            }
        }
        // Artificials can never re-enter: physically drop their columns
        // so phase-2 pivots stop paying for them.
        let mut a2 = Matrix::zeros(m, n_sf);
        for i in 0..m {
            for j in 0..n_sf {
                a2[(i, j)] = t.a[(i, j)];
            }
        }
        t.a = a2;
        t.d = vec![0.0; n_sf];
        t.banned = vec![false; n_sf];
    }

    // ---- Phase 2: minimize the real objective. ------------------------
    // (The tableau was truncated to `n_sf` columns if phase 1 ran.)
    let mut c2 = vec![0.0; t.a.cols()];
    c2[..n_sf].copy_from_slice(&sf.c);
    let mut verdict = PhaseOutcome::Optimal;
    for attempt in 0..2 {
        t.canonicalize_costs(&c2);
        verdict = run_phase(&mut t, &mut iterations, max_iterations)?;
        match verdict {
            PhaseOutcome::Optimal => break,
            PhaseOutcome::Unbounded(_) if attempt == 0 => continue,
            PhaseOutcome::Unbounded(_) => {}
        }
    }

    // Final feasibility restoration, ported from the revised engine's
    // `finish_phase_two`. Two failure modes are checked against the
    // ORIGINAL standard-form data, not the tableau's own view of it:
    //
    // * **canonical drift** — the dense tableau updates its canonical
    //   form incrementally and never refactorizes, so ill-conditioned
    //   pivots make the claimed solution stop satisfying the original
    //   equations even though every canonical `b[i]` looks fine;
    // * **primal infeasibility** — the Harris ratio test can end
    //   phase 2 with negative basic values (a silently violated
    //   constraint that pricing alone never notices).
    //
    // Either one triggers a recanonicalization (rebuild `B⁻¹A`, `B⁻¹b`
    // from the original data through a fresh dense LU — the tableau's
    // `refactorize`), then a bounded dual-simplex repair of whatever
    // negative basic values the honest rhs reveals, then a phase-2
    // re-confirmation. On well-conditioned instances the checks are one
    // `O(nnz)` scan and nothing is touched. An unrepairable basis keeps
    // the pre-restoration answer (historical soft behavior).
    let drift_tol = tol.max(1e-7);
    for _ in 0..3 {
        let PhaseOutcome::Optimal = verdict else {
            break;
        };
        let infeasible = t.worst_infeasible_row().is_some();
        if !infeasible && t.canonical_drift(sf, &b0) <= drift_tol {
            break;
        }
        if !t.recanonicalize(sf, &b0) {
            break;
        }
        // The repair's dual ratio test reads the reduced-cost row,
        // which drifted along with everything recanonicalize just
        // rebuilt — refresh it BEFORE pivoting on it (and again after,
        // since the honest rhs may have moved the basis).
        t.canonicalize_costs(&c2);
        if !t.dual_repair(4 * m + 100) {
            break;
        }
        t.canonicalize_costs(&c2);
        verdict = run_phase(&mut t, &mut iterations, max_iterations)?;
    }
    if let PhaseOutcome::Unbounded(col) = verdict {
        return Err(LpError::Unbounded { column: col });
    }

    let mut x = vec![0.0; n_sf];
    for i in 0..m {
        if t.active[i] && t.basis[i] < n_sf {
            x[t.basis[i]] = t.b[i].max(0.0);
        }
    }

    // Deactivated-row residual check — the tableau's analog of the
    // revised engine's artificial-mass bound. A row deactivated during
    // the phase-1 drive-out was judged numerically redundant (linearly
    // dependent on the enforced rows); if that verdict was right, the
    // final solution satisfies it automatically and the residual below
    // is round-off. A residual beyond the bound means phase 2 optimized
    // a *relaxation* (the dependence was an artifact of ill
    // conditioning), and the solve must fail structurally rather than
    // return the relaxation's optimum as if it were feasible. In the
    // revised engine the re-seeded artificial's value tracks exactly
    // this residual; the tableau drops deactivated rows from its
    // updates, so the residual is recomputed here from the original
    // standard-form data — one `O(nnz)` pass.
    let mut residual = 0.0;
    for i in 0..m {
        if t.active[i] {
            continue;
        }
        let ax: f64 = sf.a.iter_row(i).map(|(j, v)| v * x[j]).sum();
        residual += (ax - b0[i]).abs();
    }
    let bound = breakdown_threshold(options.perturbation, m)
        * (1.0 + b0.iter().map(|v| v.abs()).sum::<f64>());
    if residual > bound {
        return Err(LpError::ResidualArtificial { residual, bound });
    }

    Ok(BasicSolution {
        x,
        basis: t.basis,
        row_active: t.active,
        iterations,
        pricing: PricingCounts::default(),
        factor: None,
    })
}

/// Entry point used by [`LpProblem::solve_with`]: builds the shared
/// sparse standard form once, dispatches on the selected engine.
pub(crate) fn solve_standard(
    p: &LpProblem,
    options: &SimplexOptions,
) -> Result<LpSolution, LpError> {
    if options.engine == LpEngine::Decomposed {
        return crate::decompose::solve_decomposed(p, options).map(|(sol, _)| sol);
    }
    let mut sf = build_standard_form(p)?;
    sf.prepare_scaling(options.equilibrate);
    let basic = match options.engine {
        LpEngine::Revised => run_revised(&sf, options)?,
        LpEngine::Tableau => run_simplex(&sf, options)?,
        LpEngine::Decomposed => unreachable!("dispatched above"),
    };
    LpSolution::from_basic(p, &sf, &basic, options.engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Relation, Sense};

    #[test]
    fn beale_cycling_example_terminates_at_optimum() {
        // Beale's classic degenerate LP, the textbook simplex cycler.
        // With perturbation off (the default), termination rests on the
        // stall switch applying Bland's rule to BOTH pivot choices.
        let mut p = LpProblem::new(Sense::Minimize);
        let x1 = p.add_var("x1", -0.75);
        let x2 = p.add_var("x2", 150.0);
        let x3 = p.add_var("x3", -0.02);
        let x4 = p.add_var("x4", 6.0);
        p.add_constraint(
            [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        )
        .unwrap();
        p.add_constraint(
            [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        )
        .unwrap();
        p.add_constraint([(x3, 1.0)], Relation::Le, 1.0).unwrap();
        let sol = p
            .solve_with(&SimplexOptions::default().with_engine(LpEngine::Tableau))
            .unwrap();
        assert!(
            (sol.objective() - (-0.05)).abs() < 1e-9,
            "objective {}",
            sol.objective()
        );
        assert!((sol.value(x3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tableau_is_filled_from_sparse_standard_form() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 2.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        p.add_constraint([(x, 1.0)], Relation::Le, 0.75).unwrap();
        let sf = build_standard_form(&p).unwrap();
        let basic = run_simplex(&sf, &SimplexOptions::default()).unwrap();
        // min x + 2y on the simplex x + y = 1, x ≤ 0.75 → x = 0.75.
        assert!((basic.x[0] - 0.75).abs() < 1e-9);
        assert!((basic.x[1] - 0.25).abs() < 1e-9);
    }
}
