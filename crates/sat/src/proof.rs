//! DRAT proof logging and forward RUP checking.
//!
//! When proof logging is enabled ([`crate::Solver::enable_proof_logging`])
//! the solver records a transcript of clause events — original additions,
//! learnt additions, and database-reduction deletions — as [`ProofStep`]s.
//! Every learnt clause this solver produces is derivable by trivial
//! resolution from live clauses, so each `Add` step is *reverse unit
//! propagation* (RUP): asserting the negation of its literals and
//! propagating to fixpoint yields a conflict. [`DratChecker`] verifies the
//! transcript forward, step by step — an independent implementation that
//! shares no search code with the solver.
//!
//! Each `Add` carries the solver's own derivation as *hints*: the step ids
//! of the reason clauses conflict analysis resolved, in trail order, and
//! the conflict clause last (the LRAT idea of Cruz-Filipe et al.,
//! CADE 2017). The checker walks that chain instead of rediscovering it:
//! every hinted clause must be unit or falsified under the lemma's
//! negation. Hints are untrusted. A chain that does not close falls back
//! to full two-watched-literal propagation, so a hint changes how fast a
//! lemma is accepted, never whether.
//!
//! Unsatisfiability under assumptions is certified the same way: the
//! solver's failed-assumption core `{a₁,…,aₖ}` yields the certificate
//! clause `¬a₁ ∨ … ∨ ¬aₖ` (empty for unconditional unsatisfiability),
//! which must itself be RUP against the checked clause database
//! ([`DratChecker::check_certificate`]). Incremental solving is handled by
//! keeping one checker alive across solves: each solve's transcript is
//! appended before its certificate is checked, mirroring the solver's own
//! persistent clause database.

use crate::lit::{LBool, Lit, Var};
use std::collections::HashMap;
use std::fmt;

/// One event of a DRAT proof transcript.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// An input (non-learnt) clause, taken as an axiom by the checker.
    Original(Vec<Lit>),
    /// A learnt clause; must be RUP with respect to the clauses live at
    /// this point of the transcript. The second field lists the step ids
    /// of the clauses its derivation propagates, in order, ending with
    /// the conflict (empty when unknown). Ids count the `Original` and
    /// `Add` steps of the transcript from 0. Hints are untrusted: they
    /// speed up the check, and are left out of [`proof_hash`] and
    /// [`proof_to_bytes`].
    Add(Vec<Lit>, Vec<u64>),
    /// A clause removed by database reduction; must match a live clause.
    Delete(Vec<Lit>),
}

impl ProofStep {
    /// The literals of the clause this step concerns.
    pub fn lits(&self) -> &[Lit] {
        match self {
            ProofStep::Original(l) | ProofStep::Add(l, _) | ProofStep::Delete(l) => l,
        }
    }
}

/// Why a proof transcript or certificate was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// An `Add` step (or the certificate clause) is not reverse unit
    /// propagation: asserting its negation did not yield a conflict.
    NotRup(Vec<Lit>),
    /// A `Delete` step names a clause that is not live in the checker.
    MissingDelete(Vec<Lit>),
    /// A certificate literal is not the negation of any passed assumption,
    /// so the proof does not certify the claim being made.
    CertificateScope(Lit),
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn join(lits: &[Lit]) -> String {
            let strs: Vec<String> = lits.iter().map(|l| l.to_string()).collect();
            strs.join(" ")
        }
        match self {
            ProofError::NotRup(lits) => write!(f, "clause [{}] is not RUP", join(lits)),
            ProofError::MissingDelete(lits) => {
                write!(
                    f,
                    "deletion of [{}] does not match a live clause",
                    join(lits)
                )
            }
            ProofError::CertificateScope(l) => {
                write!(f, "certificate literal {l} does not negate any assumption")
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// A malformed serialized proof (byte offset-free; carries the 1-based
/// line number of the offending text line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseProofError {
    /// 1-based line number of the unparseable line.
    pub line: usize,
}

impl fmt::Display for ParseProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed proof line {}", self.line)
    }
}

impl std::error::Error for ParseProofError {}

/// Sorted, deduplicated form of a clause — the identity used for deletion
/// matching and hashing. Complementary literals end up adjacent.
fn canonical(lits: &[Lit]) -> Vec<Lit> {
    let mut v = lits.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// What a stored clause takes part in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Watched by two literals; takes part in propagation.
    Watched,
    /// Live but never propagates: units, root-satisfied clauses,
    /// tautologies and the empty clause.
    Inert,
    /// Deleted (or a rejected lemma); never used again.
    Deleted,
}

/// One stored clause: its literals are `lits[start..start + len]` of the
/// checker's arena. For watched clauses, positions 0 and 1 hold the
/// watched literals.
#[derive(Clone, Copy)]
struct Slot {
    start: u32,
    len: u32,
    state: SlotState,
}

impl Slot {
    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

#[derive(Clone, Copy)]
struct Watch {
    slot: u32,
    /// Another literal of the clause; when it is true the clause is
    /// satisfied and the watch list walk skips it without touching the
    /// arena.
    blocker: Lit,
}

/// Compaction runs once deleted clauses own more than half the arena and
/// at least this many literals.
const MIN_GARBAGE: usize = 1 << 16;

#[inline]
fn value_in(assigns: &[LBool], l: Lit) -> LBool {
    assigns[l.var().index()].xor(!l.is_positive())
}

/// Forward RUP/DRAT checker with a persistent root-level assignment.
///
/// Apply transcript steps in order with [`DratChecker::apply`]; after the
/// steps of an `Unsat` solve are applied, validate its certificate with
/// [`DratChecker::check_certificate`]. The checker keeps every root-level
/// consequence it derives, so incremental use (one checker across many
/// solves of a deepening BMC run) costs no re-propagation.
///
/// Clauses live in one flat literal arena. Every `Original` and `Add`
/// step takes one slot, in transcript order, so a slot index *is* the
/// step id that [`ProofStep::Add`] hints name.
#[derive(Default)]
pub struct DratChecker {
    assigns: Vec<LBool>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Literals of every stored clause, back to back.
    lits: Vec<Lit>,
    /// Slot `i` is the clause of the `i`-th `Original`/`Add` step.
    slots: Vec<Slot>,
    /// Arena literals still owned by deleted slots.
    garbage: usize,
    /// Watch lists indexed by literal code: clauses watching the
    /// *negation* of that literal (same convention as the solver).
    watches: Vec<Vec<Watch>>,
    /// Canonical clause → live slots holding it (duplicates allowed).
    index: HashMap<Vec<Lit>, Vec<u32>>,
    /// Set once the clause database is contradictory at the root; from then
    /// on every clause (including the empty certificate) is derivable.
    root_conflict: bool,
    steps: u64,
    rup_fallbacks: u64,
}

impl DratChecker {
    /// Creates an empty checker.
    pub fn new() -> DratChecker {
        DratChecker::default()
    }

    /// Number of transcript steps applied so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of lemmas checked by full unit propagation because their
    /// hints were missing or did not lead to a conflict. Zero for a
    /// transcript whose every `Add` carries the solver's derivation.
    pub fn rup_fallbacks(&self) -> u64 {
        self.rup_fallbacks
    }

    /// Whether the checked clause database is contradictory at the root —
    /// i.e. the empty clause has been derived.
    pub fn root_conflict(&self) -> bool {
        self.root_conflict
    }

    /// Applies one transcript step. `Original` clauses are axioms; `Add`
    /// clauses are RUP-checked (along their hints when they carry any)
    /// before insertion; `Delete` must match a live clause (by literal
    /// set).
    pub fn apply(&mut self, step: &ProofStep) -> Result<(), ProofError> {
        self.steps += 1;
        match step {
            ProofStep::Original(lits) => {
                self.insert(canonical(lits));
                Ok(())
            }
            ProofStep::Add(lits, hints) => {
                let canon = canonical(lits);
                for &l in &canon {
                    self.ensure_var(l.var());
                }
                if !self.root_conflict && !self.check_lemma(&canon, hints) {
                    // The rejected lemma still takes its step id.
                    self.slots.push(Slot {
                        start: 0,
                        len: 0,
                        state: SlotState::Deleted,
                    });
                    return Err(ProofError::NotRup(canon));
                }
                self.insert(canon);
                Ok(())
            }
            ProofStep::Delete(lits) => self.delete(lits),
        }
    }

    /// Applies a whole transcript, stopping at the first invalid step.
    pub fn apply_all(&mut self, steps: &[ProofStep]) -> Result<(), ProofError> {
        for step in steps {
            self.apply(step)?;
        }
        Ok(())
    }

    /// Validates the certificate clause of an `Unsat` answer obtained under
    /// `assumptions`: every certificate literal must be the negation of a
    /// passed assumption (the proof certifies *this* claim, not some other
    /// formula's), and the clause must be RUP against the current database.
    /// An empty certificate claims unconditional unsatisfiability and
    /// requires the database itself to be contradictory.
    ///
    /// The certificate is *not* inserted: it only holds under the
    /// assumptions, not unconditionally.
    pub fn check_certificate(
        &mut self,
        assumptions: &[Lit],
        certificate: &[Lit],
    ) -> Result<(), ProofError> {
        for &l in certificate {
            if !assumptions.contains(&!l) {
                return Err(ProofError::CertificateScope(l));
            }
        }
        let canon = canonical(certificate);
        for &l in &canon {
            self.ensure_var(l.var());
        }
        if self.root_conflict || self.is_rup(&canon) {
            Ok(())
        } else {
            Err(ProofError::NotRup(canon))
        }
    }

    fn ensure_var(&mut self, v: Var) {
        while self.assigns.len() <= v.index() {
            self.assigns.push(LBool::Undef);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
        }
    }

    #[inline]
    fn value(&self, l: Lit) -> LBool {
        value_in(&self.assigns, l)
    }

    fn enqueue(&mut self, l: Lit) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        self.assigns[l.var().index()] = LBool::from_bool(l.is_positive());
        self.trail.push(l);
    }

    /// Inserts a canonical clause into the database (already RUP-checked
    /// if needed) as the next slot.
    fn insert(&mut self, canon: Vec<Lit>) {
        for &l in &canon {
            self.ensure_var(l.var());
        }
        let slot = u32::try_from(self.slots.len()).expect("checker holds under 2^32 clauses");
        let start = self.lits.len();
        u32::try_from(start + canon.len()).expect("checker arena holds under 2^32 literals");
        self.lits.extend_from_slice(&canon);
        let tautology = canon.windows(2).any(|w| w[0] == !w[1]);
        let satisfied = canon.iter().any(|&l| self.value(l) == LBool::True);
        // Root assignments are monotone, so a clause satisfied now can never
        // propagate or conflict later: it stays inert (but addressable for
        // deletion and hints), as do tautologies.
        let mut state = SlotState::Inert;
        if canon.is_empty() {
            self.root_conflict = true;
        } else if !tautology && !satisfied {
            let clause = &mut self.lits[start..];
            let mut undef = 0;
            for i in 0..clause.len() {
                if value_in(&self.assigns, clause[i]) == LBool::Undef {
                    clause.swap(undef, i);
                    undef += 1;
                    if undef == 2 {
                        break;
                    }
                }
            }
            match undef {
                // Every literal false at the root: the empty clause.
                0 => self.root_conflict = true,
                1 => {
                    let unit = clause[0];
                    self.enqueue(unit);
                    if self.propagate() {
                        self.root_conflict = true;
                    }
                }
                _ => {
                    let (l0, l1) = (clause[0], clause[1]);
                    self.watches[(!l0).code()].push(Watch { slot, blocker: l1 });
                    self.watches[(!l1).code()].push(Watch { slot, blocker: l0 });
                    state = SlotState::Watched;
                }
            }
        }
        self.slots.push(Slot {
            start: start as u32,
            len: canon.len() as u32,
            state,
        });
        if !canon.is_empty() {
            self.index.entry(canon).or_default().push(slot);
        }
    }

    fn delete(&mut self, lits: &[Lit]) -> Result<(), ProofError> {
        let canon = canonical(lits);
        let slot = match self.index.get_mut(&canon) {
            Some(slots) if !slots.is_empty() => slots.pop().expect("non-empty"),
            _ => return Err(ProofError::MissingDelete(canon)),
        };
        let s = self.slots[slot as usize];
        if s.state == SlotState::Watched {
            let (l0, l1) = (self.lits[s.start as usize], self.lits[s.start as usize + 1]);
            self.watches[(!l0).code()].retain(|w| w.slot != slot);
            self.watches[(!l1).code()].retain(|w| w.slot != slot);
        }
        self.slots[slot as usize].state = SlotState::Deleted;
        self.garbage += s.len as usize;
        if self.garbage >= MIN_GARBAGE && 2 * self.garbage > self.lits.len() {
            self.compact();
        }
        Ok(())
    }

    /// Drops deleted clauses' literals from the arena. Slot indices (step
    /// ids) and watch lists are unaffected; only `start` offsets move.
    fn compact(&mut self) {
        let mut lits = Vec::with_capacity(self.lits.len() - self.garbage);
        for s in &mut self.slots {
            if s.state == SlotState::Deleted {
                s.start = 0;
                s.len = 0;
            } else {
                let from = s.range();
                s.start = lits.len() as u32;
                lits.extend_from_slice(&self.lits[from]);
            }
        }
        self.lits = lits;
        self.garbage = 0;
    }

    /// Two-watched-literal unit propagation over the trail; returns `true`
    /// on conflict. Used both for persistent root propagation and (with
    /// rollback) for RUP tests.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut list = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            'watchers: while i < list.len() {
                let w = list[i];
                if self.value(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let range = self.slots[w.slot as usize].range();
                let start = range.start;
                let clause = &mut self.lits[range];
                if clause[0] == false_lit {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], false_lit);
                let first = clause[0];
                if first != w.blocker && value_in(&self.assigns, first) == LBool::True {
                    list[i].blocker = first;
                    i += 1;
                    continue;
                }
                for k in 2..clause.len() {
                    let lk = clause[k];
                    if value_in(&self.assigns, lk) != LBool::False {
                        clause.swap(1, k);
                        self.watches[(!lk).code()].push(Watch {
                            slot: w.slot,
                            blocker: first,
                        });
                        list.swap_remove(i);
                        continue 'watchers;
                    }
                }
                debug_assert_eq!(self.lits[start + 1], false_lit);
                list[i].blocker = first;
                if self.value(first) == LBool::False {
                    self.watches[p.code()] = list;
                    return true;
                }
                self.enqueue(first);
                i += 1;
            }
            self.watches[p.code()] = list;
        }
        false
    }

    /// Checks one lemma: along its hints first, by full RUP when they are
    /// absent or fall short. Hinted acceptance implies RUP acceptance, so
    /// hints decide only how fast a lemma is accepted, never whether.
    fn check_lemma(&mut self, canon: &[Lit], hints: &[u64]) -> bool {
        if !hints.is_empty() && self.is_hinted_rup(canon, hints) {
            return true;
        }
        self.rup_fallbacks += 1;
        self.is_rup(canon)
    }

    /// Asserts the negation of every literal of `canon` on top of the
    /// root assignment; returns `true` when one of them is already true
    /// (asserting its negation conflicts at once).
    fn assert_negation(&mut self, canon: &[Lit]) -> bool {
        debug_assert_eq!(self.qhead, self.trail.len(), "root propagation at fixpoint");
        for &l in canon {
            match self.value(l) {
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => self.enqueue(!l),
            }
        }
        false
    }

    /// Undoes every assignment above trail position `mark`.
    fn rollback(&mut self, mark: usize) {
        for idx in (mark..self.trail.len()).rev() {
            self.assigns[self.trail[idx].var().index()] = LBool::Undef;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
    }

    /// Reverse-unit-propagation test: asserting the negation of every
    /// literal of `canon` and propagating must yield a conflict. The trail
    /// extension is rolled back before returning, so the persistent root
    /// state is untouched.
    fn is_rup(&mut self, canon: &[Lit]) -> bool {
        let mark = self.trail.len();
        let conflict = self.assert_negation(canon) || self.propagate();
        self.rollback(mark);
        conflict
    }

    /// RUP along a hint chain: with the negation of `canon` asserted, each
    /// hinted clause in turn must be unit (its open literal is assigned)
    /// or falsified (the lemma is accepted). Any other hint — an unknown
    /// or deleted step id, a clause with two or more non-false literals —
    /// or a chain that ends without a falsified clause returns `false`.
    /// Only live clauses are visited and only unit implications are
    /// assigned, so acceptance is a unit-propagation derivation.
    fn is_hinted_rup(&mut self, canon: &[Lit], hints: &[u64]) -> bool {
        let mark = self.trail.len();
        let accepted = self.assert_negation(canon) || self.follow_hints(hints);
        self.rollback(mark);
        accepted
    }

    fn follow_hints(&mut self, hints: &[u64]) -> bool {
        for &id in hints {
            let slot = match usize::try_from(id).ok().and_then(|i| self.slots.get(i)) {
                Some(s) if s.state != SlotState::Deleted => *s,
                _ => return false,
            };
            let mut open = None;
            for &l in &self.lits[slot.range()] {
                if self.value(l) != LBool::False {
                    if open.is_some() {
                        return false;
                    }
                    open = Some(l);
                }
            }
            match open {
                None => return true,
                Some(l) if self.value(l) == LBool::Undef => self.enqueue(l),
                Some(_) => {}
            }
        }
        false
    }
}

/// Running FNV-1a 64-bit hash over a transcript's structure: step tags and
/// literal codes, order-sensitive (`Add` hints are not hashed). Stable across platforms and runs; used
/// as the certificate content hash that crosses IPC and journal
/// boundaries. Feed drained batches in order with [`ProofHasher::update`];
/// the result is identical to hashing the concatenated transcript.
#[derive(Clone, Copy, Debug)]
pub struct ProofHasher(u64);

impl Default for ProofHasher {
    fn default() -> ProofHasher {
        ProofHasher::new()
    }
}

impl ProofHasher {
    const PRIME: u64 = 0x1_0000_0000_01b3;

    /// A fresh hasher (FNV-1a offset basis).
    pub fn new() -> ProofHasher {
        ProofHasher(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Feeds a batch of steps into the hash.
    pub fn update(&mut self, steps: &[ProofStep]) {
        for step in steps {
            let tag: u8 = match step {
                ProofStep::Original(_) => b'o',
                ProofStep::Add(..) => b'a',
                ProofStep::Delete(_) => b'd',
            };
            self.byte(tag);
            for l in step.lits() {
                for b in (l.code() as u32).to_le_bytes() {
                    self.byte(b);
                }
            }
            self.byte(0xff);
        }
    }

    /// The hash of everything fed so far (the hasher stays usable).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash of a whole transcript — a one-shot
/// [`ProofHasher`].
pub fn proof_hash(steps: &[ProofStep]) -> u64 {
    let mut h = ProofHasher::new();
    h.update(steps);
    h.finish()
}

/// Serializes a transcript as DRAT-style text: one clause per line in
/// DIMACS literal notation, `0`-terminated. `Add` lines are plain DRAT
/// (hints are not written, so a parsed transcript is checked by RUP),
/// `Delete` lines carry the standard `d` prefix, and `Original` lines use
/// an `o` prefix (standard DRAT keeps originals in the CNF file; this
/// format is self-contained so a transcript replays without one).
pub fn proof_to_bytes(steps: &[ProofStep]) -> Vec<u8> {
    let mut out = String::new();
    for step in steps {
        match step {
            ProofStep::Original(_) => out.push_str("o "),
            ProofStep::Add(..) => {}
            ProofStep::Delete(_) => out.push_str("d "),
        }
        for l in step.lits() {
            out.push_str(&l.to_string());
            out.push(' ');
        }
        out.push_str("0\n");
    }
    out.into_bytes()
}

/// Parses the output of [`proof_to_bytes`]. Rejects non-UTF-8 input,
/// unterminated lines, zero literals, and unknown prefixes.
pub fn proof_from_bytes(bytes: &[u8]) -> Result<Vec<ProofStep>, ParseProofError> {
    let text = std::str::from_utf8(bytes).map_err(|_| ParseProofError { line: 1 })?;
    let mut steps = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let err = ParseProofError { line: i + 1 };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (kind, rest) = if let Some(rest) = line.strip_prefix("o ") {
            ('o', rest)
        } else if let Some(rest) = line.strip_prefix("d ") {
            ('d', rest)
        } else {
            ('a', line)
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for tok in rest.split_ascii_whitespace() {
            if terminated {
                return Err(err);
            }
            let n: i64 = tok.parse().map_err(|_| err)?;
            if n == 0 {
                terminated = true;
            } else {
                let idx = n.unsigned_abs() - 1;
                if idx >= u32::MAX as u64 / 2 {
                    return Err(err);
                }
                lits.push(Lit::new(Var::from_index(idx as usize), n > 0));
            }
        }
        if !terminated {
            return Err(err);
        }
        steps.push(match kind {
            'o' => ProofStep::Original(lits),
            'd' => ProofStep::Delete(lits),
            _ => ProofStep::Add(lits, Vec::new()),
        });
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(x: i32) -> Lit {
        Lit::new(Var::from_index((x.unsigned_abs() - 1) as usize), x > 0)
    }

    fn clause(xs: &[i32]) -> Vec<Lit> {
        xs.iter().map(|&x| lit(x)).collect()
    }

    /// An unhinted lemma.
    fn add(xs: &[i32]) -> ProofStep {
        ProofStep::Add(clause(xs), Vec::new())
    }

    fn hinted(xs: &[i32], hints: &[u64]) -> ProofStep {
        ProofStep::Add(clause(xs), hints.to_vec())
    }

    fn strip_hints(steps: &[ProofStep]) -> Vec<ProofStep> {
        steps
            .iter()
            .map(|s| match s {
                ProofStep::Add(lits, _) => ProofStep::Add(lits.clone(), Vec::new()),
                other => other.clone(),
            })
            .collect()
    }

    #[test]
    fn rup_accepts_resolvents_and_rejects_random_clauses() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1, 2]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[-1, 2]))).unwrap();
        // (2) follows by resolution — RUP.
        ck.apply(&add(&[2])).unwrap();
        // (3) follows from nothing.
        assert_eq!(ck.apply(&add(&[3])), Err(ProofError::NotRup(clause(&[3]))));
    }

    #[test]
    fn unconditional_unsat_reaches_root_conflict() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1, 2]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[-1, 2]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[-2]))).unwrap();
        assert!(ck.root_conflict(), "unit propagation finds the conflict");
        // The empty certificate (unconditional unsatisfiability) passes.
        ck.check_certificate(&[], &[]).unwrap();
    }

    #[test]
    fn empty_certificate_requires_a_contradiction() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1, 2]))).unwrap();
        assert_eq!(
            ck.check_certificate(&[], &[]),
            Err(ProofError::NotRup(vec![]))
        );
    }

    #[test]
    fn assumption_certificate_is_scoped_and_rup_checked() {
        let mut ck = DratChecker::new();
        // (¬a ∨ b) with assumptions [a, ¬b]: core is both, certificate
        // (¬a ∨ b) itself.
        ck.apply(&ProofStep::Original(clause(&[-1, 2]))).unwrap();
        let assumptions = clause(&[1, -2]);
        ck.check_certificate(&assumptions, &clause(&[-1, 2]))
            .unwrap();
        // A certificate literal outside the assumption set is rejected even
        // if the clause is RUP.
        assert_eq!(
            ck.check_certificate(&clause(&[1]), &clause(&[-1, 2])),
            Err(ProofError::CertificateScope(lit(2)))
        );
        // A non-RUP certificate over valid assumptions is rejected.
        assert_eq!(
            ck.check_certificate(&clause(&[2]), &clause(&[-2])),
            Err(ProofError::NotRup(clause(&[-2])))
        );
    }

    #[test]
    fn deletes_match_by_literal_set_and_reject_unknown_clauses() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[3, 1, 2]))).unwrap();
        // Deletion uses the canonical literal-set identity, not order.
        ck.apply(&ProofStep::Delete(clause(&[2, 3, 1]))).unwrap();
        assert_eq!(
            ck.apply(&ProofStep::Delete(clause(&[1, 2, 3]))),
            Err(ProofError::MissingDelete(clause(&[1, 2, 3])))
        );
    }

    #[test]
    fn deleted_clauses_no_longer_support_rup() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1, 2]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[-1, 2]))).unwrap();
        ck.apply(&ProofStep::Delete(clause(&[-1, 2]))).unwrap();
        assert_eq!(ck.apply(&add(&[2])), Err(ProofError::NotRup(clause(&[2]))));
    }

    #[test]
    fn duplicate_clauses_delete_one_copy_at_a_time() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1, 2, 3]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[1, 2, 3]))).unwrap();
        ck.apply(&ProofStep::Delete(clause(&[1, 2, 3]))).unwrap();
        ck.apply(&ProofStep::Delete(clause(&[1, 2, 3]))).unwrap();
        assert!(ck.apply(&ProofStep::Delete(clause(&[1, 2, 3]))).is_err());
    }

    #[test]
    fn serialization_round_trips_and_rejects_tampering() {
        let steps = vec![
            ProofStep::Original(clause(&[1, -2, 3])),
            ProofStep::Add(clause(&[-1, 3]), vec![0]),
            ProofStep::Delete(clause(&[1, -2, 3])),
            ProofStep::Add(vec![], vec![]),
        ];
        let bytes = proof_to_bytes(&steps);
        // Hints are not serialized: the text form stays plain DRAT and a
        // parsed transcript is checked by RUP.
        assert_eq!(proof_from_bytes(&bytes).unwrap(), strip_hints(&steps));

        // Corrupting the terminator makes the line unparseable.
        let mut bad = bytes.clone();
        let zero = bad.iter().rposition(|&b| b == b'0').unwrap();
        bad[zero] = b'x';
        assert!(proof_from_bytes(&bad).is_err());
    }

    #[test]
    fn proof_hash_is_structural_and_order_sensitive() {
        let a = vec![add(&[1, 2])];
        let b = vec![add(&[2, 1])];
        let c = vec![ProofStep::Delete(clause(&[1, 2]))];
        assert_ne!(proof_hash(&a), proof_hash(&b), "literal order matters");
        assert_ne!(proof_hash(&a), proof_hash(&c), "step kind matters");
        assert_eq!(proof_hash(&a), proof_hash(&a.clone()), "deterministic");
        assert_ne!(proof_hash(&[]), proof_hash(&a));
    }

    #[test]
    fn root_satisfied_clauses_stay_inert_but_deletable() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1]))).unwrap();
        // Satisfied at insertion: stored inert.
        ck.apply(&ProofStep::Original(clause(&[1, 2]))).unwrap();
        ck.apply(&ProofStep::Delete(clause(&[1, 2]))).unwrap();
        // Tautologies are likewise inert and harmless.
        ck.apply(&ProofStep::Original(clause(&[3, -3]))).unwrap();
        assert!(!ck.root_conflict());
    }

    #[test]
    fn hints_never_admit_a_non_rup_lemma() {
        // Step ids: 0 (1 2), 1 (¬1 2), 2 (1 3 4), 3 (¬2 3 5), 4 (3 ¬1),
        // 5 (3 1). With 5 live, (3) would be RUP along [4, 5]; once 5 is
        // deleted nothing derives it.
        let mut ck = DratChecker::new();
        for c in [
            &[1, 2][..],
            &[-1, 2],
            &[1, 3, 4],
            &[-2, 3, 5],
            &[3, -1],
            &[3, 1],
        ] {
            ck.apply(&ProofStep::Original(clause(c))).unwrap();
        }
        ck.apply(&ProofStep::Delete(clause(&[3, 1]))).unwrap();
        let rejected = Err(ProofError::NotRup(clause(&[3])));
        // Each rejected lemma takes the next id, so the first case names
        // the id the lemma under check is about to take.
        let cases: &[(&str, &[u64])] = &[
            ("the lemma's own id", &[6]),
            ("plausible in-range ids", &[4, 0, 3, 2]),
            ("every live clause", &[0, 1, 2, 3, 4]),
            ("out-of-range id", &[4, 0, 99]),
            ("the largest id", &[u64::MAX]),
            ("deleted clause", &[4, 5]),
            ("two literals left open", &[2]),
            ("no hints", &[]),
        ];
        for (i, (what, hints)) in cases.iter().enumerate() {
            assert_eq!(ck.apply(&hinted(&[3], hints)), rejected, "{what}");
            // Rejected lemmas fall back to full RUP, and the root state is
            // untouched by the attempt.
            assert_eq!(ck.rup_fallbacks(), i as u64 + 1, "{what}");
            assert!(!ck.root_conflict());
        }
        // The id a rejected lemma took is never live either.
        assert_eq!(ck.apply(&hinted(&[3], &[6])), rejected);
        // A genuine lemma still checks along its hints afterwards:
        // ¬2 makes 0 unit (1), then 1 is falsified.
        let before = ck.rup_fallbacks();
        ck.apply(&hinted(&[2], &[0, 1])).unwrap();
        assert_eq!(ck.rup_fallbacks(), before);
    }

    #[test]
    fn rup_lemmas_with_garbage_hints_are_still_accepted() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1, 2]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[-1, 2]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[3, 4]))).unwrap();
        // (2 5) is RUP: ¬2 makes 0 unit (1), then 1 is falsified. Being
        // binary, it adds no root unit that would short-cut later checks.
        let garbage: &[&[u64]] = &[&[99], &[u64::MAX], &[2], &[1], &[0, 0], &[2, 0, 1]];
        for (i, hints) in garbage.iter().enumerate() {
            ck.apply(&hinted(&[2, 5], hints)).unwrap();
            assert_eq!(ck.rup_fallbacks(), i as u64 + 1, "{hints:?} fell back");
        }
        // The right chain needs no fallback.
        ck.apply(&hinted(&[2, 5], &[0, 1])).unwrap();
        assert_eq!(ck.rup_fallbacks(), garbage.len() as u64);
    }

    #[test]
    fn hint_chains_resolve_through_several_units() {
        // ¬4 ⊢ 3 (id 2), 2 (id 1), 1 (id 0); id 3 is then falsified.
        let mut ck = DratChecker::new();
        for c in [&[1, -2][..], &[2, -3], &[3, 4], &[-1, 4]] {
            ck.apply(&ProofStep::Original(clause(c))).unwrap();
        }
        ck.apply(&hinted(&[4, 9], &[2, 1, 0, 3])).unwrap();
        assert_eq!(ck.rup_fallbacks(), 0);
        // Out of order, the chain stalls and full RUP takes over.
        ck.apply(&hinted(&[4, 9], &[0, 1, 2, 3])).unwrap();
        assert_eq!(ck.rup_fallbacks(), 1);
    }

    #[test]
    fn step_ids_survive_arena_compaction() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1, 2]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[-1, 2]))).unwrap();
        // Enough deleted literals to compact the arena.
        let n = MIN_GARBAGE / 4 + 1;
        for i in 0..n as i32 {
            let c = clause(&[10 + 4 * i, 11 + 4 * i, 12 + 4 * i, 13 + 4 * i]);
            ck.apply(&ProofStep::Original(c.clone())).unwrap();
            ck.apply(&ProofStep::Delete(c)).unwrap();
        }
        assert!(ck.lits.len() < MIN_GARBAGE, "arena was compacted");
        ck.apply(&hinted(&[2, 5], &[0, 1])).unwrap();
        assert_eq!(ck.rup_fallbacks(), 0);
        // A compacted-away slot is still recognised as deleted.
        ck.apply(&hinted(&[2, 5], &[2])).unwrap();
        assert_eq!(ck.rup_fallbacks(), 1);
    }
}
