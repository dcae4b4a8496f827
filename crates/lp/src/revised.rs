//! Sparse revised simplex — the default engine behind
//! [`LpProblem::solve`].
//!
//! The dense tableau solver ([`crate::simplex`]) carries the full
//! `m × n` canonical tableau through every pivot: each iteration costs
//! `O(m · n)` regardless of how sparse the problem is, and the
//! occupation-measure LPs this workspace exists for are block diagonal
//! and >95 % sparse. The revised method keeps the problem data in its
//! CSR [`StandardForm`] untouched and represents the basis inverse
//! implicitly:
//!
//! * **Basis factorization** — a sparse LU of the `m × m` basis matrix
//!   ([`socbuf_linalg::SparseLu`], the same column-oriented contract as
//!   the dense [`socbuf_linalg::Lu`] kernel but `O(n²/64 + flops)` to
//!   factor: simplex bases of these LPs carry 2–6 nonzeros per column)
//!   plus a *product-form eta file*: after each pivot the update
//!   `B_new = B · E` is recorded as the sparse eta vector `w = B⁻¹ a_q`
//!   and the pivot row `r`, so `B⁻¹ v` and `B⁻ᵀ v` are one LU solve
//!   plus one sweep over the etas. The eta file is one arena: every
//!   eta's terms sit in a single `(index, value)` buffer with an offset
//!   per eta, cleared but not freed by a refactorization.
//! * **One work set per solve** — `c_B` with its moved rows, the eta
//!   sweep's answer, `y`, the reduced costs `d` with a stamp per
//!   column, a BTRAN-ed unit row `ρ` and the pivot row `α`, the
//!   entering column's FTRAN `w` with its nonzero list and the LU
//!   solves' scratch are sized once when the solve starts. Every
//!   pricing pass, FTRAN and BTRAN of both phases, of the artificial
//!   drive-out and of the dual repair writes into them, so a pivot
//!   allocates nothing once the eta file has grown to its longest
//!   length. A refactorization gathers the basis columns into two flat
//!   buffers of the same set ([`socbuf_linalg::Columns`]), not a `Vec`
//!   per column, and only the new factor itself is allocated. The
//!   buffers live and die with the solve.
//! * **Refactorization cadence** — the eta file is collapsed back into
//!   a fresh LU every [`REFACTOR_INTERVAL`] pivots (a
//!   Bartels–Golub-style refresh: rebuilding the factorization bounds
//!   both the eta-file length and the floating-point drift it
//!   accumulates). Refactorization also re-derives the basic values
//!   from the original right-hand side, so error cannot compound across
//!   the run.
//! * **Incremental pricing** — each iteration prices only what moved
//!   since the last pricing, starting from the positions that moved,
//!   and the result is bitwise a full pricing's (see [`Revised::price`]
//!   for the argument). Between two pricings a pivot changes one basic
//!   cost and only a handful of the duals change bits (Hall &
//!   McKinnon's hyper-sparsity, "Hyper-sparsity in the revised simplex
//!   method and how to exploit it", 2005). The basic costs `c_B` are
//!   kept, and a pivot lists the one it changes. The eta file's sweep
//!   starts from that list and re-runs only the etas whose inputs
//!   changed bits; the transposed LU solve of `y = B⁻ᵀ c_B` compares
//!   only the inputs the sweep lists, re-runs only the entries whose
//!   input or inputs changed, and writes only the duals whose bits
//!   change ([`socbuf_linalg::SparseLu::solve_transpose_cached`]); and
//!   a reduced cost `d_j = c_j − a_jᵀ y` is recomputed only for the
//!   columns with an entry in a row whose dual changed bits, as one dot
//!   over the CSC mirror of `A` (one transpose, built once per solve,
//!   which also serves the entering columns). After a refactorization
//!   the LU solve runs in full on the new factor, but still names only
//!   the duals whose bits moved. A solve's first pricing and a phase
//!   switch are full passes: the basic costs, the whole sweep and LU
//!   solve, and a dot for every column, `O(nnz)`, never `O(m · n)`.
//!   [`crate::LpSolution::pricing_counts`] reports how many pricings
//!   ran in full and how many reduced costs were recomputed. Under
//!   `debug_assertions` every pricing is checked against a full one,
//!   bit for bit.
//! * **Anti-cycling** — the same Dantzig-with-Bland-stall-fallback rule
//!   as the tableau engine: after 40 consecutive degenerate pivots both
//!   the entering *and* the leaving choice switch to Bland's
//!   smallest-index rule, which guarantees termination; pricing returns
//!   to Dantzig once a pivot makes strict progress. The deterministic
//!   right-hand-side perturbation ([`SimplexOptions::perturbation`])
//!   comes from the shared `StandardForm::perturbed_b` and is the only
//!   change either engine makes to the posed right-hand side, so both
//!   engines solve the identical perturbed problem and their optimal
//!   objectives agree to solver precision — the property the
//!   cross-engine oracle tests pin down.
//! * **Per-pivot passes over the nonzeros** — the entering column's
//!   FTRAN visits only the positions it reaches
//!   ([`socbuf_linalg::SparseLu::solve_reached`], Gilbert & Peierls'
//!   reached-set solve, then the eta file over those positions) and
//!   leaves the ascending list of `w`'s nonzeros. The ratio test, the
//!   `x_B` update and the recorded eta walk that list: each of them
//!   acts only where `w_i ≠ 0`, so the list gives them the positions a
//!   scan of all of `w` would act on, in the same order, and the same
//!   operations there. The entering scan tests a column's reduced cost
//!   before its status, and skips eight columns at a time, with one
//!   branch-free test, when none beats the best so far. Under
//!   `debug_assertions` every FTRAN is checked against the dense one,
//!   every nonzero bit for bit.
//!
//! Per-iteration cost is `O(nnz + m + nnz(L) + nnz(U) + eta terms)`
//! at worst (pricing plus two triangular solves and the eta sweeps)
//! with no allocation. A pivot pays for what it touches: the stored
//! entries of the `L`, `U` and eta columns its FTRAN applies, one step
//! per eta of the pricing sweep, the duals and reduced costs that
//! moved with the stored entries they read, and `O(n)` only in the
//! entering scan's one test per eight columns (plus three bitsets of
//! `m / 64` words in the LU solve). That is against the tableau's
//! `O(m · n_total)` with `n_total` including the artificial columns; on
//! the `network_processor` template at `state_cap ≥ 16` this is the
//! difference measured by the `lp_scaling_probe` smoke check. An
//! optimal solve ends on a fresh
//! factor of its final basis, which the dual recovery
//! ([`crate::LpSolution`]) resumes from instead of factoring the basis
//! again.
//!
//! [`LpProblem::solve`]: crate::LpProblem::solve

use socbuf_linalg::{Columns, Csr, LinalgError, Reach, SparseLu, TransposeCache};

use crate::simplex::{BasicSolution, SimplexOptions, STALL_SWITCH, TOLERANCE};
use crate::standard_form::StandardForm;
use crate::LpError;

/// Which simplex implementation [`crate::LpProblem::solve_with`] runs.
///
/// Both engines share the sparse CSR standard form, the two-phase
/// artificial-variable scheme, the stall-triggered Bland fallback and
/// the deterministic degeneracy-breaking perturbation, so they solve the
/// *same* problem and certify against the same
/// [`crate::verify_optimality`] oracle — they differ only in how the
/// basis inverse is represented (implicit LU + eta file vs explicit
/// canonical tableau).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LpEngine {
    /// Sparse revised simplex (this module): `O(nnz + m²)` per pivot.
    /// The default.
    #[default]
    Revised,
    /// Dense-tableau simplex (the `simplex` module): `O(m · n)` per
    /// pivot. Kept as the cross-check oracle and for tiny dense
    /// problems where the tableau's simplicity wins.
    Tableau,
    /// Block-angular decomposition (the `decompose` module): reads the
    /// block structure the problem declares
    /// ([`crate::LpProblem::declare_blocks`]) behind a single coupling
    /// row, prices the coupling
    /// out with a monotone multiplier search over independent per-block
    /// revised-simplex solves (parallel when an executor is attached),
    /// and finishes with one warm-started joint revised solve so status,
    /// objective, duals and certificates are exactly those of the joint
    /// problem. Problems that declare no usable structure fall back to the
    /// monolithic revised path, so the engine is total over arbitrary
    /// LPs.
    Decomposed,
}

impl LpEngine {
    /// Every selectable engine — what the cross-engine oracle suites
    /// iterate so a new backend is certified by the existing corpora
    /// automatically.
    pub const ALL: [LpEngine; 3] = [LpEngine::Revised, LpEngine::Tableau, LpEngine::Decomposed];
}

impl std::fmt::Display for LpEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpEngine::Revised => write!(f, "revised"),
            LpEngine::Tableau => write!(f, "tableau"),
            LpEngine::Decomposed => write!(f, "decomposed"),
        }
    }
}

/// The numerical thresholds of the revised engine, consolidated in one
/// place ([`TOLS`]) and derived from the one feasibility/optimality
/// tolerance every engine shares (`tol` below, `1e-9`).
struct RevisedTolerances {
    /// The base feasibility/optimality tolerance, applied to
    /// pricing (a reduced cost above `-base` is optimal), the ratio
    /// test and degeneracy detection. Equal to `tol`.
    base: f64,
    /// Negative basic values above `-feasibility_dust` right after a
    /// refactorization are clamped to zero: at that magnitude they are
    /// factorization round-off, not genuine infeasibility. Equal to
    /// `tol`.
    feasibility_dust: f64,
    /// A pivot element smaller than this triggers one defensive
    /// refactorization before the pivot is trusted — a suspiciously
    /// small pivot usually means eta-file drift rather than a genuinely
    /// singular direction. Equal to `tol`.
    pivot_refresh: f64,
    /// Hard floor for an acceptable pivot element *after* the defensive
    /// refresh; anything smaller is numerical breakdown and aborts the
    /// solve. Two orders below `tol`.
    pivot_reject: f64,
    /// Basic values within this of zero are snapped to exactly zero
    /// after a pivot update, keeping degeneracy (and therefore the
    /// Bland stall switch) sharp. Four orders below `tol`.
    value_snap: f64,
    /// Threshold for pivots that move artificial variables (the θ = 0
    /// guard and the post-phase-1 drive-out): never below `1e-7`
    /// regardless of `tol`, because these pivots feed directly into
    /// row-redundancy decisions where an over-tight threshold turns
    /// round-off into a structural verdict.
    artificial_guard: f64,
}

/// The revised engine's thresholds: `1e-9`, `1e-11`, `1e-13` and `1e-7`.
const TOLS: RevisedTolerances = RevisedTolerances {
    base: TOLERANCE,
    feasibility_dust: TOLERANCE,
    pivot_refresh: TOLERANCE,
    pivot_reject: TOLERANCE * 1e-2,
    value_snap: TOLERANCE * 1e-4,
    artificial_guard: TOLERANCE.max(1e-7),
};

/// A solved LP's simplex basis, exportable from
/// [`crate::LpSolution::basis_snapshot`] and re-importable through
/// [`crate::PreparedLp::solve_warm`] — the warm-start currency of the
/// sweep campaigns, where consecutive points differ only in a
/// right-hand side or a rate scale and the optimal basis barely moves.
///
/// The snapshot records, per standard-form row, which standard-form
/// column (structural or slack) was basic; rows found redundant at the
/// snapshot are marked and re-seeded with a guarded artificial on
/// import. A snapshot taken from a *different* problem shape (row or
/// column counts disagree) or one that has gone stale enough to make
/// the basis singular is detected on import and the solver falls back
/// to the cold two-phase path, so warm starts never change what is
/// solved — only how fast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasisSnapshot {
    /// Basic standard-form column per row; `usize::MAX` marks a row
    /// that was inactive (redundant) when the snapshot was taken.
    basis: Vec<usize>,
    /// Standard-form column count (structural + slack) at snapshot
    /// time, used to detect shape mismatches on import.
    cols: usize,
    /// Engine that produced the basis (diagnostic only — either
    /// engine's basis can seed a warm revised solve).
    engine: LpEngine,
}

impl BasisSnapshot {
    /// Builds a snapshot from raw parts — the constructor used when a
    /// basis is persisted outside the process (or synthesized in
    /// tests). `basis[i]` is the standard-form column basic in row `i`,
    /// `usize::MAX` for an inactive row; `cols` is the standard-form
    /// column count the basis belongs to.
    pub fn new(basis: Vec<usize>, cols: usize, engine: LpEngine) -> BasisSnapshot {
        BasisSnapshot {
            basis,
            cols,
            engine,
        }
    }

    /// Number of standard-form rows the basis covers.
    pub fn num_rows(&self) -> usize {
        self.basis.len()
    }

    /// Standard-form column count the basis was taken against.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Engine that produced the snapshot.
    pub fn engine(&self) -> LpEngine {
        self.engine
    }

    /// Basic standard-form column per row (`usize::MAX` for an inactive
    /// row) — exposed so the wire codec can serialize a snapshot for
    /// cross-process import.
    pub fn rows(&self) -> &[usize] {
        &self.basis
    }
}

/// What the revised engine's pricing did over one solve, read from
/// [`crate::LpSolution::pricing_counts`]: a trace-only record for
/// probes and tests, never rendered, as the pivot count is. The tableau
/// engine prices its whole reduced-cost row each pivot and reports
/// zeros; the decomposed engine reports its joint finishing solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PricingCounts {
    /// Pricings of the solve, incremental and full.
    pub pricings: usize,
    /// Pricings that recomputed every reduced cost: the first of a
    /// solve and the first after a phase switch.
    pub full: usize,
    /// Reduced costs recomputed, over all pricings.
    pub reduced_costs: usize,
}

/// The product-form eta file as one arena of terms. Eta `e` records a
/// pivot: after it, `B⁻¹_new = E⁻¹ B⁻¹_old` where `E` is the identity
/// with column `etas[e].row` replaced by the FTRAN-ed entering column
/// `w`. Stored sparsely — `w` inherits the basis column's sparsity, and
/// the eta sweep should cost what the data costs, not `O(m)` per eta.
/// The buffers keep their capacity across refactorizations, so
/// recording an eta allocates only while the file grows past its
/// longest length so far.
///
/// The file also keeps what pricing's sweep needs to re-run only the
/// etas whose inputs changed bits ([`EtaFile::btran_priced`]): each
/// eta's last output, and for each row the etas that read it.
struct EtaFile {
    etas: Vec<Eta>,
    /// Eta `e`'s nonzero off-pivot entries of `w`, as `(index, value)`:
    /// `terms[etas[e - 1].end..etas[e].end]` (from 0 for the first).
    terms: Vec<(usize, f64)>,
    /// Who reads each row, as lists newest eta first: `head[i]` is the
    /// first node of row `i`'s list and node `p` is `reads[p] = (eta,
    /// next node)`, [`NO_READER`] ending a list. An eta reads its own
    /// row, where its sum starts, and the row of each of its terms.
    /// Nodes are `u32` pairs, half a term's size: the index grows with
    /// the terms.
    head: Vec<u32>,
    reads: Vec<(u32, u32)>,
    /// How many etas the last pricing sweep ran; the file has only
    /// grown since.
    swept: usize,
}

/// One eta of an [`EtaFile`].
#[derive(Clone, Copy)]
struct Eta {
    /// Pivot row.
    row: usize,
    /// `w[row]`, the pivot element.
    pivot: f64,
    /// End of its terms in [`EtaFile::terms`].
    end: usize,
    /// The first node of row `row`'s reader list older than this eta:
    /// the etas that may read its output.
    below: u32,
    /// Its output at the last pricing sweep.
    out: f64,
    /// Whether the running pricing sweep must re-run it.
    stale: bool,
}

/// Ends a reader list of [`EtaFile`].
const NO_READER: u32 = u32::MAX;

impl EtaFile {
    /// An empty file over `m` rows with room for `etas` etas.
    fn new(m: usize, etas: usize) -> EtaFile {
        EtaFile {
            etas: Vec::with_capacity(etas),
            terms: Vec::new(),
            head: vec![NO_READER; m],
            reads: Vec::new(),
            swept: 0,
        }
    }

    fn len(&self) -> usize {
        self.etas.len()
    }

    fn is_empty(&self) -> bool {
        self.etas.is_empty()
    }

    /// Empties the file. `v` held the last pricing sweep's answer on
    /// the basic costs `cb`; the rows the etas wrote get their basic
    /// cost back, so `v` is that sweep's answer on the empty file.
    fn clear(&mut self, v: &mut [f64], cb: &[f64]) {
        for eta in &self.etas {
            v[eta.row] = cb[eta.row];
        }
        self.etas.clear();
        self.terms.clear();
        self.head.fill(NO_READER);
        self.reads.clear();
        self.swept = 0;
    }

    /// Eta `e`'s terms.
    fn terms(&self, e: usize) -> &[(usize, f64)] {
        let start = e.checked_sub(1).map_or(0, |p| self.etas[p].end);
        &self.terms[start..self.etas[e].end]
    }

    /// Records the eta of a pivot on row `row` with the FTRAN-ed column
    /// `w`, whose nonzeros sit at the ascending positions `nonzeros`:
    /// the terms a scan of all of `w` would store, in its order.
    fn push(&mut self, row: usize, w: &[f64], nonzeros: &[usize]) {
        let e = self.len();
        for &i in nonzeros {
            if i != row {
                self.terms.push((i, w[i]));
                self.read(e, i);
            }
        }
        self.etas.push(Eta {
            row,
            pivot: w[row],
            end: self.terms.len(),
            below: self.head[row],
            out: 0.0,
            stale: true,
        });
        self.read(e, row);
    }

    /// Adds eta `e` to the front of row `i`'s reader list.
    fn read(&mut self, e: usize, i: usize) {
        let node = u32::try_from(self.reads.len()).expect("fewer than 2³² reads");
        let e = u32::try_from(e).expect("fewer than 2³² etas");
        self.reads.push((e, self.head[i]));
        self.head[i] = node;
    }

    /// Applies every `E⁻¹` in place, oldest first (FTRAN).
    fn ftran(&self, v: &mut [f64]) {
        for (e, eta) in self.etas.iter().enumerate() {
            let vr = v[eta.row] / eta.pivot;
            v[eta.row] = vr;
            if vr == 0.0 {
                continue;
            }
            for &(i, wi) in self.terms(e) {
                v[i] -= wi * vr;
            }
        }
    }

    /// [`EtaFile::ftran`] on a `v` whose nonzeros `reach` flags, flagging
    /// each position a term writes: the same operations in the same
    /// order on every nonzero. An eta whose row holds a zero leaves it
    /// (the full sweep divides it by the pivot, which can only flip its
    /// sign) and applies no term, as there.
    fn ftran_reached(&self, v: &mut [f64], reach: &mut Reach) {
        for (e, eta) in self.etas.iter().enumerate() {
            if v[eta.row] == 0.0 {
                continue;
            }
            let vr = v[eta.row] / eta.pivot;
            v[eta.row] = vr;
            if vr == 0.0 {
                continue;
            }
            for &(i, wi) in self.terms(e) {
                v[i] -= wi * vr;
                reach.mark(i);
            }
        }
    }

    /// Applies every `E⁻ᵀ` in place, newest first (BTRAN): the full
    /// sweep [`EtaFile::btran_priced`] is checked against.
    fn btran(&self, v: &mut [f64]) {
        for (e, eta) in self.etas.iter().enumerate().rev() {
            let mut acc = v[eta.row];
            for &(i, wi) in self.terms(e) {
                acc -= wi * v[i];
            }
            v[eta.row] = acc / eta.pivot;
        }
    }

    /// [`EtaFile::btran`] of a pricing's basic costs `cb` into `v`, bit
    /// for bit, re-running only the etas whose inputs changed bits since
    /// the last pricing's sweep, whose answer `v` holds.
    ///
    /// `moved` lists the rows whose basic cost may have changed bits
    /// since that sweep; `None` means any may have, and then `v` is
    /// rebuilt from `cb` and every eta re-runs. Eta `e` reads `v` at its
    /// row and at its terms' rows, each as the newest eta above it that
    /// writes the row left it, or as the basic cost where none does, and
    /// writes its row. So the sweep first puts the basic cost back on
    /// every eta's row, and the etas, newest first, overwrite it. An
    /// eta's output is a fixed sequence of float operations on its
    /// inputs, so if none changed bits, neither did it, and its last
    /// output is written back without a sum. An eta re-runs when it is
    /// new since the last sweep, when a basic cost it reads changed
    /// bits, or when the eta it reads a row from re-ran and changed bits
    /// (a new eta counts as changed). Waking the readers of a row stops
    /// at the next eta that writes it: older readers read that eta
    /// instead. A refactorization empties the file, so the next sweep
    /// runs every eta.
    ///
    /// The sweep appends to `moved` the row of each eta whose output
    /// changed bits, so that it lists every row where `v` may now differ
    /// from the last answer. The cost is the moved rows, one step per
    /// eta and the terms of the etas that re-run.
    fn btran_priced(&mut self, cb: &[f64], v: &mut [f64], mut moved: Option<&mut Vec<usize>>) {
        match moved.as_deref() {
            Some(rows) => {
                for &i in rows {
                    v[i] = cb[i];
                    self.wake(self.head[i], i);
                }
            }
            None => {
                v.copy_from_slice(cb);
                for eta in &mut self.etas {
                    eta.stale = true;
                }
            }
        }
        for eta in &self.etas {
            v[eta.row] = cb[eta.row];
        }
        for e in (0..self.len()).rev() {
            let eta = self.etas[e];
            if eta.stale {
                let mut acc = v[eta.row];
                for &(i, wi) in self.terms(e) {
                    acc -= wi * v[i];
                }
                let out = acc / eta.pivot;
                if e >= self.swept || out.to_bits() != eta.out.to_bits() {
                    self.wake(eta.below, eta.row);
                    if let Some(moved) = moved.as_deref_mut() {
                        moved.push(eta.row);
                    }
                }
                self.etas[e].out = out;
                self.etas[e].stale = false;
            }
            v[eta.row] = self.etas[e].out;
        }
        self.swept = self.len();
    }

    /// Marks stale the readers of row `row` from node `p` on, up to and
    /// including the next eta that writes the row.
    fn wake(&mut self, mut p: u32, row: usize) {
        while p != NO_READER {
            let (e, next) = self.reads[p as usize];
            let eta = &mut self.etas[e as usize];
            eta.stale = true;
            if eta.row == row {
                break;
            }
            p = next;
        }
    }
}

/// The basis inverse: a fresh sparse LU plus the eta file accumulated
/// since.
struct Factor {
    lu: SparseLu,
    etas: EtaFile,
}

impl Factor {
    /// The factor `lu` with an empty eta file, with room reserved for
    /// the [`REFACTOR_INTERVAL`] etas it can grow to.
    fn new(lu: SparseLu) -> Factor {
        Factor {
            etas: EtaFile::new(lu.dim(), REFACTOR_INTERVAL),
            lu,
        }
    }

    /// `v ← B⁻¹ v` — one LU solve plus the eta sweep; `scratch` is the
    /// LU's work buffer. Dense: for `x_B`, and the reference of the
    /// entering column's reached-set FTRAN.
    fn ftran(&self, v: &mut [f64], scratch: &mut [f64]) -> Result<(), LpError> {
        self.lu
            .solve_in_place(v, scratch)
            .map_err(|e| LpError::InvalidModel(format!("FTRAN failed: {e}")))?;
        self.etas.ftran(v);
        Ok(())
    }

    /// `v ← B⁻ᵀ v` — the eta sweep in reverse, then one transposed LU
    /// solve.
    fn btran(&self, v: &mut [f64], scratch: &mut [f64]) -> Result<(), LpError> {
        self.etas.btran(v);
        self.lu
            .solve_transpose_in_place(v, scratch)
            .map_err(|e| LpError::InvalidModel(format!("BTRAN failed: {e}")))
    }
}

/// The per-solve work set: every pricing, FTRAN and BTRAN of both
/// phases, of the artificial drive-out and of the dual repair writes
/// into these buffers, sized once when the solve starts, so a pivot
/// allocates nothing.
struct Work {
    /// Basic costs `c_B` of the last pricing's phase (`m`), kept current
    /// by each pivot since.
    cb: Vec<f64>,
    /// The rows whose basic cost a pivot changed since the last pricing
    /// (at most `m`), to which the pricing's eta sweep adds the rows
    /// where it may have changed `lu_in` (at most one per eta).
    cb_moved: Vec<usize>,
    /// The eta file's sweep of `c_B`, the LU solve's input (`m`).
    lu_in: Vec<f64>,
    /// Duals `y = B⁻ᵀ c_B` (`m`), written only where they change.
    y: Vec<f64>,
    /// A BTRAN-ed unit row `ρ = B⁻ᵀ e_r` (`m`).
    rho: Vec<f64>,
    /// Reduced costs of the structural and slack columns (`n_sf`).
    d: Vec<f64>,
    /// Per column, the pricing that last recomputed its reduced cost.
    priced_at: Vec<usize>,
    /// A pivot row `α_j = ρ·a_j` over the same columns (`n_sf`).
    alpha: Vec<f64>,
    /// The entering column's FTRAN, `w = B⁻¹ a_q` (`m`), zero outside
    /// `w_nonzeros`.
    w: Vec<f64>,
    /// The positions where `w` is nonzero, ascending.
    w_nonzeros: Vec<usize>,
    /// The reached-set FTRAN's flags and accumulator.
    reach: Reach,
    /// The LU solves' scratch (`m`).
    scratch: Vec<f64>,
    /// Pricing's transposed LU solve: its last input and results, and
    /// which duals its last answer changed.
    duals: TransposeCache,
    /// The basis columns gathered for a refactorization, in
    /// [`Columns`] storage.
    col_start: Vec<usize>,
    col_entries: Vec<(usize, f64)>,
}

impl Work {
    fn new(m: usize, n_sf: usize) -> Work {
        Work {
            cb: vec![0.0; m],
            cb_moved: Vec::with_capacity(m + REFACTOR_INTERVAL),
            lu_in: vec![0.0; m],
            y: vec![0.0; m],
            rho: vec![0.0; m],
            d: vec![0.0; n_sf],
            priced_at: vec![0; n_sf],
            alpha: vec![0.0; n_sf],
            w: vec![0.0; m],
            w_nonzeros: Vec::with_capacity(m),
            reach: Reach::new(),
            scratch: vec![0.0; m],
            duals: TransposeCache::new(),
            col_start: Vec::with_capacity(m + 1),
            col_entries: Vec::new(),
        }
    }

    /// Gathers the columns `basis` names (in the solver's numbering,
    /// artificials `≥ n_sf`) and factors them.
    fn factor_basis(
        &mut self,
        at: &Csr,
        n_sf: usize,
        art_rows: &[usize],
        basis: &[usize],
    ) -> Result<SparseLu, LinalgError> {
        self.col_start.clear();
        self.col_entries.clear();
        self.col_start.push(0);
        for &col in basis {
            self.col_entries.extend(column_of(at, n_sf, art_rows, col));
            self.col_start.push(self.col_entries.len());
        }
        SparseLu::factor(
            basis.len(),
            Columns::new(&self.col_start, &self.col_entries),
        )
    }
}

/// Solver state: problem data (immutable) + basis bookkeeping.
struct Revised<'a> {
    sf: &'a StandardForm,
    /// CSC mirror of `sf.a` (row `j` of `at` = column `j` of `A`).
    at: Csr,
    /// Working right-hand side (perturbation included).
    b: Vec<f64>,
    /// `basis[i]` — standard-form column basic in row `i`; artificial
    /// columns are numbered `n_sf..n_sf + n_art`.
    basis: Vec<usize>,
    /// Current values of the basic variables (`x_B = B⁻¹ b`).
    xb: Vec<f64>,
    /// Column status: true when the column may not (re-)enter.
    banned: Vec<bool>,
    /// `in_basis[j]` — whether column `j` is currently basic.
    in_basis: Vec<bool>,
    factor: Factor,
    work: Work,
    /// The phase of the last pricing: `work.d` holds its reduced costs,
    /// and `work.cb` its basic costs, kept current by each pivot since.
    /// `None` before the first pricing.
    priced: Option<Phase>,
    /// What pricing did so far.
    counts: PricingCounts,
    /// Row of each artificial column: column `n_sf + k` is the unit
    /// vector `e_{art_rows[k]}`.
    art_rows: Vec<usize>,
    /// First artificial column index (`n_sf`).
    n_sf: usize,
    iterations: usize,
    /// The solve's rhs perturbation magnitude (for the artificial-mass
    /// bound; see [`Revised::art_mass_bound`]).
    perturbation: f64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    One,
    Two,
}

enum PhaseOutcome {
    Optimal,
    Unbounded(usize),
}

/// Pivots between basis refactorizations. The sparse refresh is cheap
/// (O(m²/64 + flops)), so the cadence is tuned to keep the eta file —
/// and with it the FTRAN/BTRAN sweep cost and float drift — short.
const REFACTOR_INTERVAL: usize = 64;

impl<'a> Revised<'a> {
    fn new(sf: &'a StandardForm, options: &SimplexOptions) -> Result<Self, LpError> {
        let m = sf.a.rows();
        let n_sf = sf.a.cols();
        let n_art: usize = sf.needs_artificial.iter().filter(|&&x| x).count();
        let total = n_sf + n_art;

        // Shared deterministic perturbation: both engines then start
        // from the same perturbed LP and agree on its objective.
        let b = sf.perturbed_b(options.perturbation);

        // Starting basis: the slack column where one exists, an
        // artificial elsewhere — exactly the tableau's warm start. The
        // initial basis matrix is diag(±1 slacks, +1 artificials)… but
        // Ge-row surpluses carry −1 and the rhs is ≥ 0, so those rows
        // take the artificial, never the surplus: every starting basic
        // column is a +1 unit vector and B₀ = I.
        let mut basis = vec![usize::MAX; m];
        let mut in_basis = vec![false; total];
        let mut next_art = n_sf;
        for i in 0..m {
            if sf.needs_artificial[i] {
                basis[i] = next_art;
                next_art += 1;
            } else {
                basis[i] = sf.slack_col[i].expect("row without artificial must have a slack");
            }
            in_basis[basis[i]] = true;
        }

        let mut work = Work::new(m, n_sf);
        work.col_start.extend(0..=m);
        work.col_entries.extend((0..m).map(|i| (i, 1.0)));
        let lu = SparseLu::factor(m, Columns::new(&work.col_start, &work.col_entries))
            .map_err(|e| LpError::InvalidModel(format!("identity factorization failed: {e}")))?;

        // B₀ = I, so x_B = b directly; the identity LU above matches.
        Ok(Revised {
            sf,
            at: sf.a.transpose(),
            xb: b.clone(),
            b,
            basis,
            banned: vec![false; total],
            in_basis,
            factor: Factor::new(lu),
            work,
            priced: None,
            counts: PricingCounts::default(),
            art_rows: sf.artificial_rows(),
            n_sf,
            iterations: 0,
            perturbation: options.perturbation,
        })
    }

    /// Rebuilds solver state around a previously exported basis:
    /// re-gathers the snapshot's basis columns from the (possibly
    /// mutated-in-place) standard form, refactorizes them through
    /// [`SparseLu`] and derives `x_B = B⁻¹ b` from scratch. Rows the
    /// snapshot marked redundant get a guarded artificial back (the
    /// θ = 0 rule keeps it pinned at zero).
    ///
    /// Returns `Ok(None)` when the snapshot is unusable — shape
    /// mismatch, out-of-range or duplicated columns, or a basis matrix
    /// the factorization finds singular — in which case the caller runs
    /// the cold two-phase path instead.
    fn from_snapshot(
        sf: &'a StandardForm,
        options: &SimplexOptions,
        snapshot: &BasisSnapshot,
    ) -> Result<Option<Self>, LpError> {
        let m = sf.a.rows();
        let n_sf = sf.a.cols();
        if snapshot.rows().len() != m || snapshot.num_cols() != n_sf {
            return Ok(None);
        }
        let n_art = snapshot.rows().iter().filter(|&&c| c == usize::MAX).count();
        let total = n_sf + n_art;
        let mut basis = vec![usize::MAX; m];
        let mut in_basis = vec![false; total];
        let mut art_rows = Vec::with_capacity(n_art);
        let mut next_art = n_sf;
        for (i, &col) in snapshot.rows().iter().enumerate() {
            let b = if col == usize::MAX {
                art_rows.push(i);
                let a = next_art;
                next_art += 1;
                a
            } else if col < n_sf && !in_basis[col] {
                col
            } else {
                // Out-of-range or duplicated column: a snapshot from a
                // different (or since-restructured) problem.
                return Ok(None);
            };
            basis[i] = b;
            in_basis[b] = true;
        }

        let at = sf.a.transpose();
        let mut work = Work::new(m, n_sf);
        let Ok(lu) = work.factor_basis(&at, n_sf, &art_rows, &basis) else {
            return Ok(None);
        };
        let b = sf.perturbed_b(options.perturbation);
        let mut xb = b.clone();
        if lu.solve_in_place(&mut xb, &mut work.scratch).is_err() {
            return Ok(None);
        }
        clamp_dust(&mut xb, TOLS.feasibility_dust);
        Ok(Some(Revised {
            sf,
            at,
            b,
            basis,
            xb,
            // Artificials re-seeded for redundant rows may never enter
            // (they are unpriced anyway); structural columns all may.
            banned: vec![false; total],
            in_basis,
            factor: Factor::new(lu),
            work,
            priced: None,
            counts: PricingCounts::default(),
            art_rows,
            n_sf,
            iterations: 0,
            perturbation: options.perturbation,
        }))
    }

    fn m(&self) -> usize {
        self.sf.a.rows()
    }

    /// The documented bound on the total mass artificial variables may
    /// carry on a final basis — **the exact contract of the θ = 0
    /// guard**. Rows still owned by an artificial after phase 1 are
    /// numerically redundant: any value on them is round-off of their
    /// linear dependence on the enforced rows, bounded by the phase-1
    /// infeasibility threshold scaled to the right-hand side's
    /// magnitude. Mass beyond this bound means the guard's
    /// "redundant, hence ignorable" premise has broken down, and the
    /// solve must not silently report the relaxation's optimum as the
    /// problem's — [`finish_phase_two`] returns
    /// [`LpError::ResidualArtificial`] instead.
    fn art_mass_bound(&self) -> f64 {
        art_mass_bound(self.perturbation, &self.b)
    }

    /// FTRANs column `j` of the standard form + artificials into
    /// `work.w` on the current factor, and lists its nonzeros in
    /// `work.w_nonzeros`. Only the columns of `L`, `U` and the eta file
    /// the column reaches are applied: the LU's reached-set solve, then
    /// the eta file over what it flagged. Every nonzero is bitwise what
    /// the dense FTRAN gives ([`SparseLu::solve_reached`]); under
    /// `debug_assertions` each FTRAN is checked against it.
    fn ftran_column(&mut self, j: usize) -> Result<(), LpError> {
        let work = &mut self.work;
        for &i in &work.w_nonzeros {
            work.w[i] = 0.0;
        }
        let column = column_of(&self.at, self.n_sf, &self.art_rows, j);
        for (i, v) in column.clone() {
            work.w[i] = v;
        }
        self.factor
            .lu
            .solve_reached(&mut work.w, column.map(|(i, _)| i), &mut work.reach)
            .map_err(|e| LpError::InvalidModel(format!("FTRAN failed: {e}")))?;
        self.factor.etas.ftran_reached(&mut work.w, &mut work.reach);
        work.w_nonzeros.clear();
        work.reach.drain_nonzeros(&work.w, &mut work.w_nonzeros);
        #[cfg(any(debug_assertions, test))]
        self.assert_full_ftran(j);
        Ok(())
    }

    /// Panics unless `work.w` holds what the dense FTRAN of column `j`
    /// gives ([`SparseLu::solve_in_place`], then the full eta sweep),
    /// bitwise at every nonzero and zero elsewhere, and
    /// `work.w_nonzeros` lists exactly its nonzeros, ascending.
    #[cfg(any(debug_assertions, test))]
    fn assert_full_ftran(&self, j: usize) {
        let m = self.m();
        let mut w = vec![0.0; m];
        for (i, v) in column_of(&self.at, self.n_sf, &self.art_rows, j) {
            w[i] = v;
        }
        self.factor
            .ftran(&mut w, &mut vec![0.0; m])
            .expect("the dense FTRAN solves where the reached one did");
        for (i, (&got, &want)) in self.work.w.iter().zip(&w).enumerate() {
            assert!(
                got.to_bits() == want.to_bits() || (got == 0.0 && want == 0.0),
                "reached FTRAN of column {j} moved entry {i}: {got:e} vs {want:e}"
            );
        }
        let nonzeros: Vec<usize> = (0..m).filter(|&i| w[i] != 0.0).collect();
        assert_eq!(self.work.w_nonzeros, nonzeros, "FTRAN nonzeros moved");
    }

    /// `work.rho = B⁻ᵀ e_r`, the BTRAN-ed unit row `ρ`, in a buffer of
    /// its own: the duals in `work.y` carry over to the next pricing.
    fn btran_unit(&mut self, r: usize) -> Result<(), LpError> {
        let work = &mut self.work;
        work.rho.fill(0.0);
        work.rho[r] = 1.0;
        self.factor.btran(&mut work.rho, &mut work.scratch)
    }

    /// `work.alpha = ρᵀ A` for the `ρ` in `work.rho`, in `O(nnz)` over
    /// the rows where `ρ` is nonzero.
    fn row_of_inverse(&mut self) {
        let work = &mut self.work;
        work.alpha.fill(0.0);
        for (i, &ri) in work.rho.iter().enumerate() {
            if ri == 0.0 {
                continue;
            }
            for (j, v) in self.sf.a.iter_row(i) {
                work.alpha[j] += ri * v;
            }
        }
    }

    /// Regathers the (sparse) basis columns, refactors them, clears the
    /// eta file and recomputes `x_B = B⁻¹ b` from the original data.
    fn refactorize(&mut self) -> Result<(), LpError> {
        let lu = self
            .work
            .factor_basis(&self.at, self.n_sf, &self.art_rows, &self.basis)
            .map_err(|e| LpError::InvalidModel(format!("basis refactorization failed: {e}")))?;
        self.factor.lu = lu;
        let work = &mut self.work;
        self.factor.etas.clear(&mut work.lu_in, &work.cb);
        self.xb.copy_from_slice(&self.b);
        self.factor.ftran(&mut self.xb, &mut self.work.scratch)?;
        clamp_dust(&mut self.xb, TOLS.feasibility_dust);
        Ok(())
    }

    /// Prices the current basis for `phase`: the basic costs in
    /// `work.cb`, the duals `y = B⁻ᵀ c_B` in `work.y`, and the reduced
    /// costs of all structural + slack columns, `d = c − Aᵀ y`, in
    /// `work.d`. Artificial columns are never priced (they are banned
    /// the moment they leave the basis).
    ///
    /// Only what moved since the last pricing is recomputed, from the
    /// positions that moved, and the result is bitwise what a full
    /// pricing gives: the full BTRAN ([`SparseLu::solve_transpose_in_place`]
    /// after the eta sweep) and one scatter `d_j −= y_i a_ij` of every
    /// CSR row whose dual is nonzero, in increasing row order. The
    /// argument:
    ///
    /// * `c_B` is kept: a pivot writes the one basic cost it changes and
    ///   lists its row. It is rebuilt in full only when the phase is not
    ///   the last pricing's: at a solve's start, from a snapshot or
    ///   cold, and at a phase switch.
    /// * The eta file's `E⁻ᵀ` sweep starts from the listed rows and
    ///   re-runs only the etas whose inputs changed bits, writing back
    ///   the last output of every other ([`EtaFile::btran_priced`]). It
    ///   lists the rows where its answer may have moved.
    /// * The LU's transposed solve through `work.duals` compares only
    ///   those rows, re-runs only the entries whose input, or an entry
    ///   they read, changed bits, and writes into `work.y` only the
    ///   duals whose bits change ([`SparseLu::solve_transpose_cached`]).
    ///   An eta or entry whose operands all kept their bits would redo
    ///   the same operations on them.
    /// * `d_j` is computed as one dot over column `j` of the CSC mirror
    ///   `at`. `Csr::transpose` stores a column's rows in increasing
    ///   order, so the dot makes the scatter's subtractions on `d_j`, in
    ///   the same order and with the same `y_i == 0` skip.
    /// * `d_j` depends only on `c_j` (0 in phase 1) and the duals of
    ///   the rows column `j` holds. So while the phase is the last
    ///   pricing's, only the columns with an entry in a row whose dual
    ///   changed bits are recomputed, in one walk over those rows that
    ///   stamps each column it recomputes.
    /// * Every column is recomputed at a solve's first pricing and on a
    ///   phase switch. After a refactorization the LU solve runs in full
    ///   on the new factor, but it compares each dual with the last
    ///   answer and names those whose bits moved, so only their columns
    ///   are recomputed, as after a pivot.
    ///
    /// So an incremental pricing on a factor it has priced before costs
    /// the moved rows, one step per eta, the stored entries of what
    /// re-runs and the changed duals' columns; no pass over all `m` rows
    /// or `n` columns.
    ///
    /// Under `debug_assertions` (and in this module's tests) every eta
    /// sweep is compared with [`EtaFile::btran`] and every pricing with
    /// a full one, bit for bit.
    fn price(&mut self, phase: Phase) -> Result<(), LpError> {
        let n_sf = self.n_sf;
        let sf = self.sf;
        let work = &mut self.work;
        let same_phase = self.priced == Some(phase);
        if !same_phase {
            for (cb, &j) in work.cb.iter_mut().zip(&self.basis) {
                *cb = basic_cost(sf, n_sf, phase, j);
            }
        }
        self.factor.etas.btran_priced(
            &work.cb,
            &mut work.lu_in,
            same_phase.then_some(&mut work.cb_moved),
        );
        #[cfg(any(debug_assertions, test))]
        {
            let mut full = work.cb.clone();
            self.factor.etas.btran(&mut full);
            assert_eq!(
                bits(&work.lu_in),
                bits(&full),
                "incremental eta sweep moved"
            );
        }
        self.factor
            .lu
            .solve_transpose_cached(
                &work.lu_in,
                same_phase.then_some(&work.cb_moved[..]),
                &mut work.y,
                &mut work.duals,
            )
            .map_err(|e| LpError::InvalidModel(format!("BTRAN failed: {e}")))?;
        work.cb_moved.clear();
        self.counts.pricings += 1;
        if same_phase {
            let stamp = self.counts.pricings;
            for i in work.duals.changed() {
                for &j in sf.a.row(i).0 {
                    if work.priced_at[j] != stamp {
                        work.priced_at[j] = stamp;
                        work.d[j] = reduced_cost(sf, &self.at, phase, &work.y, j);
                        self.counts.reduced_costs += 1;
                    }
                }
            }
        } else {
            for (j, dj) in work.d.iter_mut().enumerate() {
                *dj = reduced_cost(sf, &self.at, phase, &work.y, j);
            }
            self.counts.full += 1;
            self.counts.reduced_costs += n_sf;
        }
        self.priced = Some(phase);
        #[cfg(any(debug_assertions, test))]
        self.assert_full_pricing(phase);
        Ok(())
    }

    /// Panics unless `work.cb`, `work.y` and `work.d` hold, bit for
    /// bit, what a full pricing of the current basis for `phase` gives:
    /// the basic costs rebuilt from the basis, the BTRAN through
    /// [`SparseLu::solve_transpose_in_place`] and the full scatter.
    #[cfg(any(debug_assertions, test))]
    fn assert_full_pricing(&self, phase: Phase) {
        let cb: Vec<f64> = self
            .basis
            .iter()
            .map(|&j| basic_cost(self.sf, self.n_sf, phase, j))
            .collect();
        assert_eq!(bits(&self.work.cb), bits(&cb), "kept basic costs moved");
        let mut y = cb;
        let mut scratch = vec![0.0; y.len()];
        self.factor
            .btran(&mut y, &mut scratch)
            .expect("the full BTRAN solves where the cached one did");
        let mut d = vec![0.0; self.n_sf];
        scatter_reduced_costs(self.sf, phase, &y, &mut d);
        assert_eq!(bits(&self.work.y), bits(&y), "incremental duals moved");
        assert_eq!(
            bits(&self.work.d),
            bits(&d),
            "incremental reduced costs moved"
        );
    }

    /// The entering column the last pricing picks: Bland's smallest
    /// eligible index when `stalled`, else Dantzig's most negative
    /// reduced cost, ties to the lower index. `None` = optimal.
    ///
    /// Each column tests its reduced cost first: few columns beat the
    /// best so far, so most never read `banned` or `in_basis`, and
    /// Dantzig's scan passes over eight columns at once when none of
    /// their reduced costs does. The tests are pure and joined by `&&`,
    /// so their order cannot change which column passes them all; a
    /// column passed over fails the first; and the scan still runs in
    /// increasing index order, so a tie still goes to the lower index.
    fn enter(&self, stalled: bool) -> Option<usize> {
        let d = &self.work.d;
        if stalled {
            return d
                .iter()
                .enumerate()
                .find(|&(j, &dj)| dj < -TOLS.base && !self.banned[j] && !self.in_basis[j])
                .map(|(j, _)| j);
        }
        let mut best = None;
        let mut best_val = -TOLS.base;
        let chunks = d.chunks_exact(8);
        let tail = d.len() - chunks.remainder().len();
        for (c, chunk) in chunks.enumerate() {
            // Most chunks hold no reduced cost below the best so far;
            // one branch-free test per chunk passes over them. The eight
            // compares are joined by `|`, not `any`, which would branch
            // after each.
            let chunk: &[f64; 8] = chunk.try_into().expect("chunks of 8");
            if chunk.iter().fold(false, |any, &dj| any | (dj < best_val)) {
                self.dantzig(8 * c..8 * c + 8, &mut best_val, &mut best);
            }
        }
        self.dantzig(tail..d.len(), &mut best_val, &mut best);
        best
    }

    /// Dantzig's scan of `enter` over the columns `range`, in order.
    fn dantzig(&self, range: std::ops::Range<usize>, best_val: &mut f64, best: &mut Option<usize>) {
        for j in range {
            let dj = self.work.d[j];
            if dj < *best_val && !self.banned[j] && !self.in_basis[j] {
                *best_val = dj;
                *best = Some(j);
            }
        }
    }

    /// Ratio test on `w = B⁻¹ a_q` (`work.w`). Two-pass Harris style
    /// under Dantzig (largest pivot within a window of the minimum
    /// ratio), smallest basis index under Bland — the stalled regime
    /// needs Bland to govern *both* pivot choices for the termination
    /// guarantee.
    ///
    /// In phase 2 a basic artificial sitting at zero must never grow
    /// again: any entering column touching its row pivots the artificial
    /// out first via a degenerate (θ = 0) pivot.
    ///
    /// Every pass walks `w`'s nonzeros, ascending: each test below
    /// fails on `w_i = 0`, so a scan of all of `w` would act on these
    /// positions only, in the same order.
    fn leave(&self, bland: bool, guard_artificials: bool) -> Option<usize> {
        let w = &self.work.w;
        let nonzeros = || self.work.w_nonzeros.iter().map(|&i| (i, w[i]));
        if guard_artificials {
            for (i, wi) in nonzeros() {
                if self.basis[i] >= self.n_sf && wi.abs() > TOLS.artificial_guard {
                    // The θ = 0 contract: a guarded artificial must be
                    // sitting at (numerical) zero — see `art_mass_bound`
                    // for the documented tolerance.
                    debug_assert!(
                        self.xb[i].max(0.0) <= self.art_mass_bound(),
                        "θ=0 guard fired on row {i} whose artificial carries mass {:.3e} \
                         beyond the redundancy bound {:.3e}",
                        self.xb[i],
                        self.art_mass_bound()
                    );
                    return Some(i);
                }
            }
        }
        let tol = TOLS.base;
        let mut min_ratio = f64::INFINITY;
        for (i, wi) in nonzeros() {
            if wi > tol {
                min_ratio = min_ratio.min(self.xb[i].max(0.0) / wi);
            }
        }
        if !min_ratio.is_finite() {
            return None;
        }
        let window = tol * (1.0 + min_ratio.abs());
        let mut best: Option<(usize, f64)> = None;
        for (i, wi) in nonzeros() {
            if wi > tol && self.xb[i].max(0.0) / wi <= min_ratio + window {
                let better = match best {
                    None => true,
                    Some((bi, bv)) => {
                        if bland {
                            self.basis[i] < self.basis[bi]
                        } else {
                            wi > bv || (wi == bv && self.basis[i] < self.basis[bi])
                        }
                    }
                };
                if better {
                    best = Some((i, wi));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Executes the basis change `basis[r] ← q` with the already
    /// FTRAN-ed column in `work.w`, using the primal step length
    /// `θ = x_B[r] / w[r]` (clamped non-negative).
    fn pivot(&mut self, r: usize, q: usize) -> Result<(), LpError> {
        let theta = (self.xb[r].max(0.0) / self.work.w[r]).max(0.0);
        self.pivot_with_theta(r, q, theta)
    }

    /// The shared tail of a primal or dual pivot: applies the step
    /// length `theta` along `work.w` to the basic values, swaps
    /// `basis[r] ← q`, records the eta and honors the refactorization
    /// cadence. Dual pivots pass the unclamped `θ = x_B[r] / w[r]`
    /// (both negative at a dual step, so θ ≥ 0 still, but the primal
    /// clamp would zero it out). The update and the eta walk `w`'s
    /// nonzeros, ascending: the positions a scan of all of `w` acts on,
    /// in its order.
    fn pivot_with_theta(&mut self, r: usize, q: usize, theta: f64) -> Result<(), LpError> {
        let (w, nonzeros) = (&self.work.w, &self.work.w_nonzeros);
        if theta > 0.0 {
            for &i in nonzeros {
                self.xb[i] -= theta * w[i];
                if self.xb[i].abs() < TOLS.value_snap {
                    self.xb[i] = 0.0;
                }
            }
        }
        self.xb[r] = theta;
        let leaving = self.basis[r];
        self.in_basis[leaving] = false;
        if leaving >= self.n_sf {
            // Artificials may never come back.
            self.banned[leaving] = true;
        }
        self.basis[r] = q;
        self.in_basis[q] = true;
        if let Some(phase) = self.priced {
            // The one basic cost the pivot changes. At most `m` pivots
            // come between two pricings (a drive-out's, one per row), so
            // the list stays within the capacity it was given.
            let c = basic_cost(self.sf, self.n_sf, phase, q);
            let (cb, moved) = (&mut self.work.cb, &mut self.work.cb_moved);
            if c.to_bits() != cb[r].to_bits() {
                cb[r] = c;
                moved.push(r);
            }
        }
        self.factor.etas.push(r, w, nonzeros);
        self.iterations += 1;
        if self.factor.etas.len() >= REFACTOR_INTERVAL {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Runs one phase to optimality / unboundedness.
    fn run_phase(&mut self, phase: Phase, max_iterations: usize) -> Result<PhaseOutcome, LpError> {
        let guard = matches!(phase, Phase::Two);
        let mut stall = 0usize;
        loop {
            if self.iterations >= max_iterations {
                return Err(LpError::IterationLimit {
                    limit: max_iterations,
                });
            }
            self.price(phase)?;
            let stalled = stall >= STALL_SWITCH;
            let Some(q) = self.enter(stalled) else {
                // Eta-file drift can fake optimality; only a verdict from
                // a fresh factorization is trusted.
                if !self.factor.etas.is_empty() {
                    self.refactorize()?;
                    self.price(phase)?;
                    if let Some(q) = self.enter(stalled) {
                        // Not optimal after all — take the pivot now.
                        if self.step(q, stalled, guard)?.is_none() {
                            return Ok(PhaseOutcome::Unbounded(q));
                        }
                        stall += 1; // conservatively treat as degenerate
                        continue;
                    }
                }
                return Ok(PhaseOutcome::Optimal);
            };
            let Some(degenerate) = self.step(q, stalled, guard)? else {
                // Unbounded ray: trust it only from a fresh basis.
                if self.factor.etas.is_empty() {
                    return Ok(PhaseOutcome::Unbounded(q));
                }
                self.refactorize()?;
                if self.step(q, stalled, guard)?.is_none() {
                    return Ok(PhaseOutcome::Unbounded(q));
                }
                stall += 1;
                continue;
            };
            if degenerate {
                stall += 1;
            } else {
                stall = 0;
            }
        }
    }

    /// FTRANs the entering column, runs the ratio test and pivots.
    /// `Ok(None)` = unbounded; `Ok(Some(degenerate))` = pivot done.
    fn step(&mut self, q: usize, bland: bool, guard: bool) -> Result<Option<bool>, LpError> {
        self.ftran_column(q)?;
        let mut r = match self.leave(bland, guard) {
            Some(r) => r,
            None => return Ok(None),
        };
        // A pivot element this small signals eta-file drift: refresh the
        // factorization once and redo the FTRAN before giving up.
        if self.work.w[r].abs() < TOLS.pivot_refresh && !self.factor.etas.is_empty() {
            self.refactorize()?;
            self.ftran_column(q)?;
            r = match self.leave(bland, guard) {
                Some(r) => r,
                None => return Ok(None),
            };
        }
        if self.work.w[r].abs() < TOLS.pivot_reject {
            return Err(LpError::InvalidModel(format!(
                "revised simplex: pivot element {:.3e} too small (column {q})",
                self.work.w[r]
            )));
        }
        let degenerate = self.xb[r].abs() <= TOLS.base;
        self.pivot(r, q)?;
        Ok(Some(degenerate))
    }

    /// After phase 1: pivot still-basic artificials out wherever a
    /// usable structural pivot exists (rows where none exists are
    /// numerically redundant and stay guarded by the θ = 0 rule).
    fn drive_out_artificials(&mut self) -> Result<(), LpError> {
        let m = self.m();
        for i in 0..m {
            if self.basis[i] < self.n_sf {
                continue;
            }
            // ρ = B⁻ᵀ e_i, then u_j = ρ·a_j for every column in O(nnz).
            self.btran_unit(i)?;
            self.row_of_inverse();
            let mut best: Option<(usize, f64)> = None;
            for (j, &uj) in self.work.alpha.iter().enumerate() {
                if self.in_basis[j] || self.banned[j] {
                    continue;
                }
                let mag = uj.abs();
                if mag > TOLS.artificial_guard && best.is_none_or(|(_, bv)| mag > bv) {
                    best = Some((j, mag));
                }
            }
            if let Some((j, _)) = best {
                self.ftran_column(j)?;
                if self.work.w[i].abs() > TOLS.artificial_guard {
                    // Degenerate pivot: the artificial sits at ~0.
                    self.xb[i] = 0.0;
                    self.pivot(i, j)?;
                }
            }
        }
        Ok(())
    }

    /// Bounded dual-simplex repair of primal infeasibility, the warm
    /// path's substitute for phase 1. After an RHS-only delta the
    /// previous optimal basis stays dual feasible, so driving the
    /// negative basic values out with dual pivots (leaving row = most
    /// negative `x_B`, entering column = dual ratio test over the BTRAN
    /// row) walks straight back to feasibility; after a rate-scaling
    /// delta dual feasibility only approximately holds, so negative
    /// reduced costs are clamped to zero in the ratio (the subsequent
    /// primal phase-2 run restores optimality regardless).
    ///
    /// Returns `Ok(true)` when the basis is primal feasible, `Ok(false)`
    /// when the repair gave up (no eligible entering column, or the
    /// pivot budget ran out) — the caller then falls back to the cold
    /// two-phase path, which also owns the infeasibility verdict.
    fn dual_repair(&mut self, max_pivots: usize) -> Result<bool, LpError> {
        let m = self.m();
        let feas = TOLS.feasibility_dust;
        let mut pivots = 0usize;
        loop {
            // Leaving row: most negative basic value (ties: lowest row —
            // the argmin scan is deterministic). Artificial-owned rows
            // are exempt: those are the snapshot's redundant rows, which
            // the cold path deactivates rather than enforces — repairing
            // them here would make the warm solve *stricter* than cold
            // and their objectives would diverge.
            let mut leave: Option<usize> = None;
            let mut worst = -feas;
            for i in 0..m {
                if self.basis[i] < self.n_sf && self.xb[i] < worst {
                    worst = self.xb[i];
                    leave = Some(i);
                }
            }
            let Some(r) = leave else {
                if self.factor.etas.is_empty() {
                    return Ok(true);
                }
                // Only a verdict from a fresh factorization is trusted.
                self.refactorize()?;
                if primal_feasible(&self.basis, self.n_sf, &self.xb, feas) {
                    return Ok(true);
                }
                continue;
            };
            if pivots >= max_pivots {
                return Ok(false);
            }
            // ρ = B⁻ᵀ e_r, then the pivot row α_j = ρ·a_j in O(nnz).
            self.btran_unit(r)?;
            self.row_of_inverse();
            self.price(Phase::Two)?;
            // Dual ratio test: minimize d_j / |α_j| over α_j < 0 (ties:
            // smallest column index, for determinism).
            let mut enter: Option<(usize, f64)> = None;
            for (j, &aj) in self.work.alpha.iter().enumerate() {
                if self.in_basis[j] || self.banned[j] || aj >= -TOLS.pivot_refresh {
                    continue;
                }
                let ratio = self.work.d[j].max(0.0) / -aj;
                if enter.is_none_or(|(_, best)| ratio < best) {
                    enter = Some((j, ratio));
                }
            }
            let Some((q, _)) = enter else {
                // No way to raise x_B[r]: primal infeasible if the duals
                // are clean, stale otherwise — either way, cold path.
                return Ok(false);
            };
            self.ftran_column(q)?;
            if self.work.w[r] >= -TOLS.pivot_reject {
                // The FTRAN disagrees with the BTRAN row: eta drift.
                // Refresh once and retry the whole step; give up if the
                // factorization is already fresh.
                if self.factor.etas.is_empty() {
                    return Ok(false);
                }
                self.refactorize()?;
                continue;
            }
            // Dual step: θ = x_B[r] / w[r] ≥ 0 (both strictly negative).
            let theta = self.xb[r] / self.work.w[r];
            self.pivot_with_theta(r, q, theta)?;
            pivots += 1;
        }
    }

    /// Extracts the solution in the tableau engine's `BasicSolution`
    /// shape: rows still owned by an artificial are reported inactive
    /// (they are redundant), everything else maps one to one. `priced`
    /// says the current basis is the one the last pricing found optimal;
    /// with an empty eta file the LU then *is* that basis's fresh
    /// factor, which is handed out as it stands — never refactorized
    /// just to be kept.
    fn into_basic(self, priced: bool) -> BasicSolution {
        let m = self.m();
        let mut x = vec![0.0; self.n_sf];
        let mut basis = vec![usize::MAX; m];
        let mut row_active = vec![true; m];
        for i in 0..m {
            if self.basis[i] < self.n_sf {
                basis[i] = self.basis[i];
                x[self.basis[i]] = self.xb[i].max(0.0);
            } else {
                row_active[i] = false;
            }
        }
        BasicSolution {
            x,
            basis,
            row_active,
            iterations: self.iterations,
            pricing: self.counts,
            factor: (priced && self.factor.etas.is_empty()).then_some(self.factor.lu),
        }
    }
}

/// `d = c − Aᵀ y` for `phase` (`c = 0` in phase 1) by one scatter of
/// every CSR row whose dual is nonzero, in increasing row order: the
/// full pricing [`Revised::assert_full_pricing`] checks against.
#[cfg(any(debug_assertions, test))]
fn scatter_reduced_costs(sf: &StandardForm, phase: Phase, y: &[f64], d: &mut [f64]) {
    match phase {
        Phase::One => d.fill(0.0),
        Phase::Two => d.copy_from_slice(&sf.c),
    }
    for (i, &yi) in y.iter().enumerate() {
        if yi == 0.0 {
            continue;
        }
        for (j, v) in sf.a.iter_row(i) {
            d[j] -= yi * v;
        }
    }
}

/// The bits of each entry of `v`, for bitwise comparisons.
#[cfg(any(debug_assertions, test))]
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `d_j = c_j − a_jᵀ y` for `phase` (`c = 0` in phase 1), as a dot
/// over row `j` of the CSC mirror `at`, skipping zero duals. The rows
/// come in increasing order, so the subtractions are, in order, those a
/// scatter of `A`'s rows in increasing order makes on `d_j`. A zero
/// dual's term is subtracted as `+0`, which leaves every value, `−0`
/// included, as the skip does, without a branch on the dual.
fn reduced_cost(sf: &StandardForm, at: &Csr, phase: Phase, y: &[f64], j: usize) -> f64 {
    let mut dj = match phase {
        Phase::One => 0.0,
        Phase::Two => sf.c[j],
    };
    for (i, v) in at.iter_row(j) {
        let yi = y[i];
        dj -= if yi != 0.0 { yi * v } else { 0.0 };
    }
    dj
}

/// The cost of column `j` (artificials `≥ n_sf`) in `phase`: 1 for an
/// artificial in phase 1, the objective's in phase 2, 0 otherwise.
fn basic_cost(sf: &StandardForm, n_sf: usize, phase: Phase, j: usize) -> f64 {
    match phase {
        Phase::One if j >= n_sf => 1.0,
        Phase::Two if j < n_sf => sf.c[j],
        _ => 0.0,
    }
}

/// Clamps negative basic values above `-dust` to zero: at that
/// magnitude they are factorization round-off, not infeasibility.
fn clamp_dust(xb: &mut [f64], dust: f64) {
    for x in xb.iter_mut() {
        if *x < 0.0 && *x > -dust {
            *x = 0.0;
        }
    }
}

/// `1 + ‖b‖₁`, the scale the artificial residual and mass bounds are
/// measured against.
fn b_scale(b: &[f64]) -> f64 {
    1.0 + b.iter().map(|v| v.abs()).sum::<f64>()
}

/// The θ = 0 guard's redundancy bound; see [`Revised::art_mass_bound`].
fn art_mass_bound(perturbation: f64, b: &[f64]) -> f64 {
    crate::simplex::breakdown_threshold(perturbation, b.len()) * b_scale(b)
}

// The helpers below read a basis in either numbering: the solver's
// (artificials are `n_sf..`) or a snapshot's (`usize::MAX` marks the
// row of a re-seeded artificial). Both put artificials at `≥ n_sf`.

/// Σ |x_B| over artificial-owned rows.
fn art_residual(basis: &[usize], n_sf: usize, xb: &[f64]) -> f64 {
    (0..basis.len())
        .filter(|&i| basis[i] >= n_sf)
        .map(|i| xb[i].abs())
        .sum()
}

/// Total (non-negative) mass sitting on artificial-owned rows.
fn art_mass(basis: &[usize], n_sf: usize, xb: &[f64]) -> f64 {
    (0..basis.len())
        .filter(|&i| basis[i] >= n_sf)
        .map(|i| xb[i].max(0.0))
        .sum()
}

/// Whether every structural basic value is at least `-dust`
/// (artificial-owned rows are not enforced).
fn primal_feasible(basis: &[usize], n_sf: usize, xb: &[f64], dust: f64) -> bool {
    (0..basis.len()).all(|i| basis[i] >= n_sf || xb[i] >= -dust)
}

/// Column `j` of the standard form + artificials as sparse terms:
/// structural and slack columns from the CSC mirror `at`, artificial
/// column `n_sf + k` as the unit vector of row `art_rows[k]`.
fn column_of<'a>(at: &'a Csr, n_sf: usize, art_rows: &[usize], j: usize) -> ColumnIter<'a> {
    if j < n_sf {
        let (idx, vals) = at.row(j);
        ColumnIter::Structural { idx, vals, pos: 0 }
    } else {
        ColumnIter::Artificial(Some(art_rows[j - n_sf]))
    }
}

/// Sparse column access that treats artificial columns as unit vectors.
#[derive(Clone)]
enum ColumnIter<'a> {
    Structural {
        idx: &'a [usize],
        vals: &'a [f64],
        pos: usize,
    },
    Artificial(Option<usize>),
}

impl Iterator for ColumnIter<'_> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        match self {
            ColumnIter::Structural { idx, vals, pos } => {
                let i = *pos;
                if i < idx.len() {
                    *pos += 1;
                    Some((idx[i], vals[i]))
                } else {
                    None
                }
            }
            ColumnIter::Artificial(row) => row.take().map(|i| (i, 1.0)),
        }
    }
}

/// Runs the two-phase revised simplex on a standard form. Mirrors
/// [`crate::simplex::run_simplex`] exactly in its contract so
/// [`crate::solution::LpSolution::from_basic`] serves both engines.
pub(crate) fn run_revised(
    sf: &StandardForm,
    options: &SimplexOptions,
) -> Result<BasicSolution, LpError> {
    let m = sf.a.rows();
    if m == 0 {
        // No rows at all (the LU kernel rejects 0 × 0 input): with
        // x ≥ 0 unconstrained, the optimum is x = 0 unless some cost is
        // negative, in which case that column is an unbounded ray.
        if let Some(col) = sf.c.iter().position(|&c| c < -TOLS.base) {
            return Err(LpError::Unbounded { column: col });
        }
        return Ok(BasicSolution {
            x: vec![0.0; sf.a.cols()],
            basis: Vec::new(),
            row_active: Vec::new(),
            iterations: 0,
            pricing: PricingCounts::default(),
            factor: None,
        });
    }
    let n_art: usize = sf.needs_artificial.iter().filter(|&&x| x).count();
    let total = sf.a.cols() + n_art;
    let max_iterations = if options.max_iterations == 0 {
        20_000.max(50 * (m + total))
    } else {
        options.max_iterations
    };

    let mut solver = Revised::new(sf, options)?;

    if n_art > 0 {
        match solver.run_phase(Phase::One, max_iterations)? {
            PhaseOutcome::Optimal => {}
            PhaseOutcome::Unbounded(_) => {
                // Phase-1 objective is bounded below by 0; cannot happen.
                return Err(LpError::InvalidModel(
                    "phase 1 reported unbounded; numerical breakdown".into(),
                ));
            }
        }
        let phase1_obj: f64 = (0..m)
            .filter(|&i| solver.basis[i] >= solver.n_sf)
            .map(|i| solver.xb[i].max(0.0))
            .sum();
        let infeas_threshold = crate::simplex::breakdown_threshold(options.perturbation, m);
        if phase1_obj > infeas_threshold {
            return Err(LpError::Infeasible {
                residual: phase1_obj,
            });
        }
        solver.drive_out_artificials()?;
    }

    let outcome = solver.run_phase(Phase::Two, max_iterations)?;
    finish_phase_two(solver, outcome, max_iterations)
}

/// Shared tail of the cold and warm solves: confirms the phase-2
/// optimum sits on a primal-feasible basis and repairs it when it does
/// not. The Harris ratio test trades exact minimum-ratio selection for
/// pivot-size robustness, so on ill-conditioned instances the final
/// basis can be infeasible beyond round-off (a basic slack at −1e-4 ≈ a
/// silently violated constraint — pricing alone never notices, and the
/// reported objective then undercuts the true optimum). A bounded
/// dual-simplex pass drives the negative values out and phase 2
/// re-confirms optimality; on well-conditioned problems the check is
/// one refactorized scan and zero pivots. If the repair itself breaks
/// down the pre-restoration answer is returned (the engine's historical
/// soft behavior) rather than failing the solve.
///
/// Separately from the repair, an `Optimal` verdict is only released if
/// the artificial variables still in the basis carry no more than the
/// θ = 0 guard's documented redundancy bound
/// ([`Revised::art_mass_bound`]): residual mass beyond it means the
/// "redundant row" verdict has broken down and the answer would be the
/// optimum of a *relaxation*, so the solve returns
/// [`LpError::ResidualArtificial`] instead of passing silently (the
/// warm path falls back to a cold solve on this error; the cold path
/// reports it to the caller).
fn finish_phase_two(
    mut solver: Revised<'_>,
    mut outcome: PhaseOutcome,
    max_iterations: usize,
) -> Result<BasicSolution, LpError> {
    let m = solver.m();
    // Whether the basis is still the one the last pricing found optimal:
    // a repair that gives up may leave pivots behind that no pricing saw.
    let mut priced = true;
    for _ in 0..3 {
        let PhaseOutcome::Optimal = outcome else {
            break;
        };
        if !solver.factor.etas.is_empty() {
            solver.refactorize()?;
        }
        if primal_feasible(
            &solver.basis,
            solver.n_sf,
            &solver.xb,
            TOLS.feasibility_dust,
        ) {
            break;
        }
        let pivots = solver.iterations;
        match solver.dual_repair(4 * m + 100) {
            Ok(true) => outcome = solver.run_phase(Phase::Two, max_iterations)?,
            Ok(false) | Err(LpError::InvalidModel(_)) => {
                priced = solver.iterations == pivots;
                break;
            }
            Err(e) => return Err(e),
        }
    }
    match outcome {
        PhaseOutcome::Optimal => {
            // The θ = 0 contract, enforced: `run_phase`'s Optimal
            // verdict always comes off a fresh factorization, so `xb`
            // is `B⁻¹b` exact to factorization precision here.
            let residual = art_mass(&solver.basis, solver.n_sf, &solver.xb);
            let bound = solver.art_mass_bound();
            if residual > bound {
                return Err(LpError::ResidualArtificial { residual, bound });
            }
            Ok(solver.into_basic(priced))
        }
        PhaseOutcome::Unbounded(col) => Err(LpError::Unbounded { column: col }),
    }
}

/// Warm-started revised simplex: refactorizes the supplied basis, runs a
/// bounded dual-simplex repair if the basis is primal infeasible for the
/// current right-hand side, then finishes with the ordinary primal
/// phase 2. When the snapshot is singular or stale (shape mismatch,
/// unrepairable infeasibility, numerical breakdown on the warm path,
/// pivot budget exhausted) the solve falls back to [`run_revised`]'s
/// cold two-phase path — so a warm solve returns exactly what a cold
/// solve would have: `Optimal` with the same (unique) objective,
/// `Infeasible`, or `Unbounded`. Seeded with the *optimal* basis of the
/// unchanged problem it performs zero pivots.
pub(crate) fn run_revised_warm(
    sf: &StandardForm,
    options: &SimplexOptions,
    snapshot: &BasisSnapshot,
) -> Result<BasicSolution, LpError> {
    let m = sf.a.rows();
    if m == 0 {
        return run_revised(sf, options);
    }
    let Some(mut solver) = Revised::from_snapshot(sf, options, snapshot)? else {
        return run_revised(sf, options);
    };

    // Rows the snapshot marked redundant are re-seeded with artificials
    // and *not* enforced — mirroring what the cold path does with rows
    // its phase 1 deactivates, whose residuals it likewise stops
    // policing (they are numerically dependent on the enforced rows, so
    // any residual is round-off of that dependence, not a constraint
    // violation). A *large* residual, however, means the snapshot's
    // redundancy verdict belongs to a different problem — cold phase 1
    // would not deactivate these rows — so the warm path must not
    // silently solve a relaxation: fall back cold. The scale separates
    // round-off of a dependent row (‖b‖-relative, tiny) from a genuinely
    // binding row (order of its rhs).
    if art_residual(&solver.basis, solver.n_sf, &solver.xb) > 1e-3 * b_scale(&solver.b) {
        return run_revised(sf, options);
    }

    match solver.dual_repair(4 * m + 100) {
        Ok(true) => {}
        // Unrepairable, or the basis went singular mid-repair: cold.
        Ok(false) | Err(LpError::InvalidModel(_)) => return run_revised(sf, options),
        Err(e) => return Err(e),
    }

    let n_art: usize = sf.needs_artificial.iter().filter(|&&x| x).count();
    let total = sf.a.cols() + n_art;
    let max_iterations = if options.max_iterations == 0 {
        20_000.max(50 * (m + total))
    } else {
        options.max_iterations
    };
    match solver.run_phase(Phase::Two, max_iterations) {
        Ok(outcome) => match finish_phase_two(solver, outcome, max_iterations) {
            // The snapshot's redundancy verdict broke down (residual
            // artificial mass beyond the θ = 0 bound): let cold phase 1
            // re-decide which rows are genuinely redundant.
            Err(LpError::ResidualArtificial { .. }) => run_revised(sf, options),
            other => other,
        },
        // Breakdown or budget exhaustion on the warm path must never
        // produce a worse answer than a cold start would: retry cold.
        Err(LpError::InvalidModel(_)) | Err(LpError::IterationLimit { .. }) => {
            run_revised(sf, options)
        }
        Err(e) => Err(e),
    }
}

/// The rhs-only fast path of [`crate::PreparedLp::solve_warm`]:
/// re-solves on a kept factor of the snapshot's basis. `lu` must be the
/// fresh factor a solve of the current `A` and `c` ended on, with this
/// very basis priced optimal. Reduced costs do not depend on `b`, so
/// they are still optimal and only `x_B = B⁻¹ b` is new. This computes
/// it and runs [`run_revised_warm`]'s checks on it (artificial residual,
/// primal feasibility, artificial mass) with the same arithmetic, so a
/// basis that passes gets bitwise the answer the warm path would give
/// in zero pivots. `None` when a check fails; the caller then runs the
/// full warm path.
pub(crate) fn resolve_on_factor(
    sf: &StandardForm,
    options: &SimplexOptions,
    basis: &[usize],
    lu: &SparseLu,
) -> Option<BasicSolution> {
    let n_sf = sf.a.cols();
    let b = sf.perturbed_b(options.perturbation);
    let mut xb = lu.solve(&b).ok()?;
    clamp_dust(&mut xb, TOLS.feasibility_dust);
    if art_residual(basis, n_sf, &xb) > 1e-3 * b_scale(&b)
        || !primal_feasible(basis, n_sf, &xb, TOLS.feasibility_dust)
        || art_mass(basis, n_sf, &xb) > art_mass_bound(options.perturbation, &b)
    {
        return None;
    }
    let mut x = vec![0.0; n_sf];
    let mut row_active = vec![true; basis.len()];
    for (i, &col) in basis.iter().enumerate() {
        if col < n_sf {
            x[col] = xb[i].max(0.0);
        } else {
            row_active[i] = false;
        }
    }
    Some(BasicSolution {
        x,
        basis: basis.to_vec(),
        row_active,
        iterations: 0,
        pricing: PricingCounts::default(),
        factor: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard_form::build_standard_form;
    use crate::{LpProblem, Relation, Sense};

    fn solve_revised(p: &LpProblem) -> Result<BasicSolution, LpError> {
        let sf = build_standard_form(p).unwrap();
        run_revised(&sf, &SimplexOptions::default())
    }

    #[test]
    fn simple_max_problem() {
        // Wyndor: max 3x + 5y; optimum 36 at (2, 6).
        let mut p = LpProblem::new(Sense::Maximize);
        let x = p.add_var("x", 3.0);
        let y = p.add_var("y", 5.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0).unwrap();
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0).unwrap();
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let basic = solve_revised(&p).unwrap();
        assert!((basic.x[0] - 2.0).abs() < 1e-9, "x = {}", basic.x[0]);
        assert!((basic.x[1] - 6.0).abs() < 1e-9, "y = {}", basic.x[1]);
    }

    #[test]
    fn equality_rows_need_artificials() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 2.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        p.add_constraint([(x, 1.0)], Relation::Le, 0.75).unwrap();
        let basic = solve_revised(&p).unwrap();
        assert!((basic.x[0] - 0.75).abs() < 1e-9);
        assert!((basic.x[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 1.0).unwrap();
        p.add_constraint([(x, 1.0)], Relation::Ge, 2.0).unwrap();
        assert!(matches!(solve_revised(&p), Err(LpError::Infeasible { .. })));
    }

    #[test]
    fn unbounded_detected() {
        let mut p = LpProblem::new(Sense::Maximize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 0.0);
        p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Le, 5.0)
            .unwrap();
        assert!(matches!(solve_revised(&p), Err(LpError::Unbounded { .. })));
    }

    #[test]
    fn redundant_equalities_leave_inactive_rows() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 3.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 2.0)
            .unwrap();
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 2.0)
            .unwrap();
        let basic = solve_revised(&p).unwrap();
        assert!((basic.x[0] - 2.0).abs() < 1e-9);
        assert!(basic.x[1].abs() < 1e-9);
        // One of the duplicate rows must be parked as redundant.
        assert_eq!(basic.row_active.iter().filter(|&&a| !a).count(), 1);
    }

    #[test]
    fn refactorization_cadence_is_exercised() {
        // The 7-D Klee–Minty cube: Dantzig pricing walks all 2^7 = 128
        // of its vertices, well past one refactorization, and the
        // optimum is the last one, x_7 = 5^7.
        let d = 7;
        let mut p = LpProblem::new(Sense::Maximize);
        let x: Vec<_> = (0..d)
            .map(|j| p.add_var(format!("x{j}"), f64::from(1 << (d - 1 - j))))
            .collect();
        for i in 0..d {
            let mut terms: Vec<_> = (0..i)
                .map(|j| (x[j], f64::from(1 << (i - j + 1))))
                .collect();
            terms.push((x[i], 1.0));
            p.add_constraint(terms, Relation::Le, 5f64.powi(i as i32 + 1))
                .unwrap();
        }
        let sf = build_standard_form(&p).unwrap();
        let basic = run_revised(&sf, &SimplexOptions::default()).unwrap();
        assert!(
            basic.iterations > REFACTOR_INTERVAL,
            "{} pivots",
            basic.iterations
        );
        assert!((basic.x[d - 1] - 5f64.powi(d as i32)).abs() < 1e-6);
        assert!(basic.x[..d - 1].iter().all(|v| v.abs() < 1e-6));
    }

    // Every pricing in this module's tests checks itself against a full
    // pricing (`Revised::assert_full_pricing`), in release builds too,
    // so the tests below only need to reach each case and show which
    // way the LU solve ran.

    /// A 3 × 4 transportation problem, whose equality rows make phase 1
    /// run, plus a column `z ≤ 10` of its own: its row's slack stays
    /// basic, so that row's dual is 0 in both phases, while `z`'s
    /// reduced cost moves from 0 to its cost at the switch.
    fn transportation() -> LpProblem {
        let mut p = LpProblem::new(Sense::Minimize);
        let supply = [20.0, 30.0, 25.0];
        let demand = [10.0, 25.0, 15.0, 25.0];
        let x: Vec<Vec<_>> = (0..3)
            .map(|i| {
                (0..4)
                    .map(|j| p.add_var(format!("x{i}{j}"), 1.0 + ((3 * i + 5 * j) % 7) as f64))
                    .collect()
            })
            .collect();
        for (i, &s) in supply.iter().enumerate() {
            let terms: Vec<_> = x[i].iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(terms, Relation::Eq, s).unwrap();
        }
        for (j, &d) in demand.iter().enumerate() {
            let terms: Vec<_> = x.iter().map(|row| (row[j], 1.0)).collect();
            p.add_constraint(terms, Relation::Eq, d).unwrap();
        }
        let z = p.add_var("z", 5.0);
        p.add_constraint([(z, 1.0)], Relation::Le, 10.0).unwrap();
        p
    }

    #[test]
    fn a_phase_switch_prices_the_reduced_costs_in_full() {
        let sf = build_standard_form(&transportation()).unwrap();
        let opts = SimplexOptions::default();
        let mut solver = Revised::new(&sf, &opts).unwrap();
        let outcome = solver.run_phase(Phase::One, 1000).unwrap();
        assert!(matches!(outcome, PhaseOutcome::Optimal));
        assert!(solver.iterations > 0, "phase 1 pivoted");
        // Phase 1 ended on a fresh factor that is still current, so the
        // LU solve runs incrementally, while the reduced costs change
        // cost vector: `z`'s must move though no dual of its row did.
        let full = solver.counts.full;
        solver.price(Phase::Two).unwrap();
        assert_eq!(solver.counts.full, full + 1);
        let outcome = solver.run_phase(Phase::Two, 1000).unwrap();
        assert!(matches!(outcome, PhaseOutcome::Optimal));
    }

    #[test]
    fn a_refactorization_between_two_pricings_reprices_the_moved_duals() {
        let mut p = LpProblem::new(Sense::Maximize);
        let x: Vec<_> = (0..5)
            .map(|j| p.add_var(format!("x{j}"), 1.0 + j as f64))
            .collect();
        for k in 0..4 {
            let terms: Vec<_> = x
                .iter()
                .map(|&v| (v, 1.0 + ((k + v.index()) % 3) as f64))
                .collect();
            p.add_constraint(terms, Relation::Le, 10.0 + k as f64)
                .unwrap();
        }
        let sf = build_standard_form(&p).unwrap();
        let opts = SimplexOptions::default();
        let mut solver = Revised::new(&sf, &opts).unwrap();
        let n = sf.a.cols();
        solver.price(Phase::Two).unwrap();
        assert_eq!(solver.counts.full, 1, "a solve's first pricing");
        let q = solver.enter(false).expect("not optimal at the slack basis");
        assert_eq!(solver.step(q, false, true).unwrap(), Some(false));
        solver.price(Phase::Two).unwrap();
        assert_eq!(solver.counts.full, 1, "same factor, one eta");
        // The LU solve on the new factor runs in full and compares each
        // dual with the last: only the columns of the rows whose duals
        // moved bits are repriced (every pricing checks itself).
        let y = solver.work.y.clone();
        solver.refactorize().unwrap();
        let before = solver.counts.reduced_costs;
        solver.price(Phase::Two).unwrap();
        let mut moved: Vec<usize> = (0..y.len())
            .filter(|&i| solver.work.y[i].to_bits() != y[i].to_bits())
            .flat_map(|i| sf.a.row(i).0.to_vec())
            .collect();
        moved.sort_unstable();
        moved.dedup();
        assert_eq!(solver.counts.reduced_costs - before, moved.len());
        solver.price(Phase::Two).unwrap();
        assert_eq!(solver.work.duals.changed().count(), 0, "nothing moved");
        let counts = solver.counts;
        assert_eq!((counts.pricings, counts.full), (4, 1));
        assert!(counts.reduced_costs < 2 * n, "{counts:?}");
    }

    #[test]
    fn a_unit_btran_between_two_pricings_leaves_the_duals() {
        // The drive-out and the dual repair BTRAN a unit row between
        // two pricings. The next pricing writes only the duals that
        // change, so ρ must not land in the duals' buffer: every pricing
        // checks itself against a full one.
        let sf = build_standard_form(&transportation()).unwrap();
        let opts = SimplexOptions::default();
        let mut solver = Revised::new(&sf, &opts).unwrap();
        solver.price(Phase::One).unwrap();
        for r in 0..2 {
            let y = solver.work.y.clone();
            solver.btran_unit(r).unwrap();
            solver.row_of_inverse();
            assert_eq!(bits(&solver.work.y), bits(&y), "ρ of row {r}");
            let q = solver.enter(false).expect("phase 1 is not done");
            solver.step(q, false, false).unwrap().expect("a pivot");
            solver.price(Phase::One).unwrap();
        }
        assert_eq!(solver.counts.full, 1, "{:?}", solver.counts);
    }

    #[test]
    fn a_phase_two_pivot_changes_one_basic_cost() {
        let sf = build_standard_form(&transportation()).unwrap();
        let opts = SimplexOptions::default();
        let mut solver = Revised::new(&sf, &opts).unwrap();
        assert!(matches!(
            solver.run_phase(Phase::One, 1000).unwrap(),
            PhaseOutcome::Optimal
        ));
        solver.price(Phase::Two).unwrap();
        for _ in 0..2 {
            let (basis, cb) = (solver.basis.clone(), solver.work.cb.clone());
            let q = solver.enter(false).expect("phase 2 is not done");
            solver.step(q, false, true).unwrap().expect("a pivot");
            let r = (0..basis.len()).find(|&i| solver.basis[i] != basis[i]);
            let r = r.expect("a basis change");
            let moved: Vec<usize> = (0..cb.len())
                .filter(|&i| solver.work.cb[i].to_bits() != cb[i].to_bits())
                .collect();
            assert_eq!(moved, [r]);
            assert_eq!(solver.work.cb_moved, [r]);
            assert_eq!(solver.work.cb[r], sf.c[q]);
            // The pricing checks the kept costs against a rebuild.
            solver.price(Phase::Two).unwrap();
            assert!(solver.work.cb_moved.is_empty());
        }
    }

    #[test]
    fn dual_repair_prices_incrementally() {
        // max Σ x_j with x_j ≤ 1 and Σ x_j ≤ total: every x_j sits at its
        // bound for a slack total; cutting the total to 1.5 leaves that
        // basis primal infeasible, and repairing it takes dual pivots.
        let problem = |total: f64| {
            let mut p = LpProblem::new(Sense::Maximize);
            let x: Vec<_> = (0..4).map(|j| p.add_var(format!("x{j}"), 1.0)).collect();
            for &v in &x {
                p.add_constraint([(v, 1.0)], Relation::Le, 1.0).unwrap();
            }
            let terms: Vec<_> = x.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(terms, Relation::Le, total).unwrap();
            p
        };
        let sf = build_standard_form(&problem(10.0)).unwrap();
        let opts = SimplexOptions::default();
        let cold = run_revised(&sf, &opts).unwrap();
        let snapshot = BasisSnapshot::new(cold.basis, sf.a.cols(), LpEngine::Revised);
        let sf = build_standard_form(&problem(1.5)).unwrap();
        let mut solver = Revised::from_snapshot(&sf, &opts, &snapshot)
            .unwrap()
            .expect("the snapshot fits");
        assert!(solver.dual_repair(100).unwrap(), "repaired");
        assert!(solver.iterations >= 2, "{} dual pivots", solver.iterations);
        // Only the repair's first pricing, on the snapshot's basis, ran
        // in full.
        assert_eq!(solver.counts.full, 1, "{:?}", solver.counts);
        assert!(solver.counts.pricings >= 2);
    }

    #[test]
    fn a_phase_switch_on_a_grown_eta_file_re_runs_what_it_reads() {
        // Two phase-1 pivots, each priced, then a phase-2 pricing on the
        // same factor: the basic costs change on every row (the
        // artificials' 1 becomes 0, the entered columns' 0 their cost),
        // so etas no pivot since added must re-run for what they read.
        let sf = build_standard_form(&transportation()).unwrap();
        let opts = SimplexOptions::default();
        let mut solver = Revised::new(&sf, &opts).unwrap();
        for _ in 0..2 {
            solver.price(Phase::One).unwrap();
            let q = solver.enter(false).expect("phase 1 is not done");
            solver.step(q, false, false).unwrap().expect("a pivot");
        }
        solver.price(Phase::One).unwrap();
        assert_eq!(solver.factor.etas.swept, 2);
        solver.price(Phase::Two).unwrap();
    }

    #[test]
    fn an_ftran_after_a_refactorization_starts_clean() {
        // At the starting basis (B = I) column `x00` holds rows 0 and 3
        // and `x12` rows 1 and 5, so after `x00` pivots in, `x12`'s FTRAN
        // on the refactored basis shares no position with the last one:
        // an entry the first left behind would show in the check against
        // the dense FTRAN every FTRAN runs in tests.
        let sf = build_standard_form(&transportation()).unwrap();
        let opts = SimplexOptions::default();
        let mut solver = Revised::new(&sf, &opts).unwrap();
        solver.price(Phase::One).unwrap();
        let (x00, x12) = (0, 6);
        assert_eq!(solver.step(x00, false, false).unwrap(), Some(false));
        assert_eq!(solver.work.w_nonzeros, [0, 3]);
        solver.refactorize().unwrap();
        solver.ftran_column(x12).unwrap();
        assert_eq!(solver.work.w_nonzeros, [1, 5]);
        // And on the eta file: the same FTRAN after one more pivot.
        let q = solver.enter(false).expect("phase 1 is not done");
        solver.step(q, false, false).unwrap().expect("a pivot");
        solver.ftran_column(x12).unwrap();
        assert!(!solver.factor.etas.is_empty());
    }

    #[test]
    fn dual_pivots_update_x_b_over_the_nonzeros() {
        // max Σ x_j with x_j ≤ 1 and Σ x_j ≤ total: the optimum for a
        // slack total is every x_j at its bound; at a total of 2.5 that
        // basis is infeasible. Two dual pivots, then the repair stops at
        // its budget, so x_B is what the pivots' updates left: it must
        // agree with B⁻¹b computed afresh on the new basis.
        let problem = |total: f64| {
            let mut p = LpProblem::new(Sense::Maximize);
            let x: Vec<_> = (0..6).map(|j| p.add_var(format!("x{j}"), 1.0)).collect();
            for &v in &x {
                p.add_constraint([(v, 1.0)], Relation::Le, 1.0).unwrap();
            }
            let terms: Vec<_> = x.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(terms, Relation::Le, total).unwrap();
            p
        };
        let sf = build_standard_form(&problem(10.0)).unwrap();
        let opts = SimplexOptions::default();
        let cold = run_revised(&sf, &opts).unwrap();
        let snapshot = BasisSnapshot::new(cold.basis, sf.a.cols(), LpEngine::Revised);
        let sf = build_standard_form(&problem(2.5)).unwrap();
        let mut solver = Revised::from_snapshot(&sf, &opts, &snapshot)
            .unwrap()
            .expect("the snapshot fits");
        assert!(!solver.dual_repair(2).unwrap(), "stopped at its budget");
        assert_eq!(solver.iterations, 2);
        assert_eq!(solver.factor.etas.len(), 2);
        let updated = solver.xb.clone();
        solver.refactorize().unwrap();
        for (i, (&got, &want)) in updated.iter().zip(&solver.xb).enumerate() {
            assert!((got - want).abs() < 1e-12, "x_B[{i}]: {got} vs {want}");
        }
    }

    #[test]
    fn enter_breaks_a_tie_to_the_lower_column() {
        // At the slack basis the reduced costs are the negated costs:
        // columns 3 and 11 tie for the most negative, in different
        // chunks of the pre-test; column 1 is the first eligible one.
        let costs = [
            0.0, 0.5, 0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.5, 0.0, 2.0, 0.0,
        ];
        let mut p = LpProblem::new(Sense::Maximize);
        let x: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(j, &c)| p.add_var(format!("x{j}"), c))
            .collect();
        let terms: Vec<_> = x.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(terms, Relation::Le, 1.0).unwrap();
        let sf = build_standard_form(&p).unwrap();
        let opts = SimplexOptions::default();
        let mut solver = Revised::new(&sf, &opts).unwrap();
        solver.price(Phase::Two).unwrap();
        assert_eq!(solver.work.d[3], solver.work.d[11]);
        assert_eq!(solver.enter(false), Some(3), "Dantzig, lower of the tie");
        assert_eq!(solver.enter(true), Some(1), "Bland");
        solver.banned[3] = true;
        assert_eq!(solver.enter(false), Some(11), "the tie's other column");
        solver.in_basis[11] = true;
        assert_eq!(solver.enter(false), Some(9));
    }
}
