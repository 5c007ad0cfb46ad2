//! DeltaBlue: the incremental dataflow constraint solver.
//!
//! §10: "A more sophisticated constraint system, based on the University of
//! Washington's 'Delta-Blue' constraint solver, has been developed in LISP
//! and is being ported to OMOS and C++." This module is that port,
//! following Sannella et al.'s planner: constraints carry *strengths*,
//! satisfaction proceeds by walkabout-strength comparison, and plans are
//! extracted incrementally when constraints are added or removed.
//!
//! [`ChainLayout`] at the bottom wires the solver to library placement:
//! library bases form a chain (`base[i+1] = base[i] + size[i]`), an edit
//! constraint moves one library, and plan execution incrementally re-lays
//! everything downstream — the ablation benchmarks compare this against
//! the production first-fit solver.

use std::fmt;

/// Constraint strength, strongest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Strength {
    /// Must hold.
    Required,
    /// Stronger preferences, in descending order.
    StrongPreferred,
    /// Preferred.
    Preferred,
    /// Strong default.
    StrongDefault,
    /// Normal.
    Normal,
    /// Weak default.
    WeakDefault,
    /// Weakest.
    Weakest,
}

impl Strength {
    /// True if `self` is strictly stronger than `other`.
    #[must_use]
    pub fn stronger(self, other: Strength) -> bool {
        self < other
    }

    /// The weaker of the two.
    #[must_use]
    pub fn weakest_of(self, other: Strength) -> Strength {
        if self.stronger(other) {
            other
        } else {
            self
        }
    }
}

/// A variable handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

/// A constraint handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConId(usize);

/// Solver errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A `Required` constraint could not be satisfied.
    RequiredFailure,
    /// The constraint graph developed a cycle.
    Cycle,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::RequiredFailure => write!(f, "could not satisfy a required constraint"),
            DbError::Cycle => write!(f, "cycle encountered in constraint graph"),
        }
    }
}

impl std::error::Error for DbError {}

#[derive(Debug)]
struct Variable {
    value: i64,
    constraints: Vec<ConId>,
    determined_by: Option<ConId>,
    mark: u64,
    walk: Strength,
    stay: bool,
}

/// The constraint behaviors the layout work needs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Keep `v` at its current value.
    Stay(VarId),
    /// `v` is set externally (an input).
    Edit(VarId),
    /// `dst = src * scale + offset`, invertible.
    Scale {
        /// Source variable.
        src: VarId,
        /// Destination variable.
        dst: VarId,
        /// Constant scale (non-zero).
        scale: i64,
        /// Constant offset.
        offset: i64,
    },
}

/// Which method a satisfied constraint executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selected {
    /// Unary output, or binary forward (`dst` from `src`).
    Forward,
    /// Binary backward (`src` from `dst`).
    Backward,
}

#[derive(Debug)]
struct Constraint {
    strength: Strength,
    kind: Kind,
    selected: Option<Selected>,
}

impl Constraint {
    fn is_input(&self) -> bool {
        matches!(self.kind, Kind::Edit(_))
    }

    fn is_satisfied(&self) -> bool {
        self.selected.is_some()
    }

    fn output(&self) -> VarId {
        match (self.kind, self.selected) {
            (Kind::Stay(v) | Kind::Edit(v), _) => v,
            (Kind::Scale { dst, .. }, Some(Selected::Forward) | None) => dst,
            (Kind::Scale { src, .. }, Some(Selected::Backward)) => src,
        }
    }

    fn input(&self) -> Option<VarId> {
        match (self.kind, self.selected) {
            (Kind::Stay(_) | Kind::Edit(_), _) => None,
            (Kind::Scale { src, .. }, Some(Selected::Forward) | None) => Some(src),
            (Kind::Scale { dst, .. }, Some(Selected::Backward)) => Some(dst),
        }
    }
}

/// The DeltaBlue planner.
#[derive(Debug, Default)]
pub struct Planner {
    vars: Vec<Variable>,
    cons: Vec<Constraint>,
    mark: u64,
}

impl Planner {
    /// Creates an empty planner.
    #[must_use]
    pub fn new() -> Planner {
        Planner::default()
    }

    /// Adds a variable with an initial value.
    pub fn variable(&mut self, value: i64) -> VarId {
        self.vars.push(Variable {
            value,
            constraints: Vec::new(),
            determined_by: None,
            mark: 0,
            walk: Strength::Weakest,
            stay: true,
        });
        VarId(self.vars.len() - 1)
    }

    /// Current value of a variable.
    #[must_use]
    pub fn value(&self, v: VarId) -> i64 {
        self.vars[v.0].value
    }

    /// Sets an edit variable's value (only meaningful between
    /// [`Planner::extract_plan`] executions; plans re-propagate it).
    pub fn set_value(&mut self, v: VarId, value: i64) {
        self.vars[v.0].value = value;
    }

    /// Adds a stay constraint.
    pub fn stay(&mut self, v: VarId, strength: Strength) -> Result<ConId, DbError> {
        self.add(Kind::Stay(v), strength)
    }

    /// Adds an edit constraint.
    pub fn edit(&mut self, v: VarId, strength: Strength) -> Result<ConId, DbError> {
        self.add(Kind::Edit(v), strength)
    }

    /// Adds `dst = src * scale + offset`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero (the constraint would not be invertible).
    pub fn scale(
        &mut self,
        src: VarId,
        dst: VarId,
        scale: i64,
        offset: i64,
        strength: Strength,
    ) -> Result<ConId, DbError> {
        assert!(scale != 0, "scale constraints must be invertible");
        self.add(
            Kind::Scale {
                src,
                dst,
                scale,
                offset,
            },
            strength,
        )
    }

    /// Adds `a = b` (scale 1, offset 0).
    pub fn equality(&mut self, a: VarId, b: VarId, strength: Strength) -> Result<ConId, DbError> {
        self.scale(b, a, 1, 0, strength)
    }

    fn add(&mut self, kind: Kind, strength: Strength) -> Result<ConId, DbError> {
        let id = ConId(self.cons.len());
        self.cons.push(Constraint {
            strength,
            kind,
            selected: None,
        });
        for v in self.variables_of(id) {
            self.vars[v.0].constraints.push(id);
        }
        self.incremental_add(id)?;
        Ok(id)
    }

    fn variables_of(&self, c: ConId) -> Vec<VarId> {
        match self.cons[c.0].kind {
            Kind::Stay(v) | Kind::Edit(v) => vec![v],
            Kind::Scale { src, dst, .. } => vec![src, dst],
        }
    }

    fn new_mark(&mut self) -> u64 {
        self.mark += 1;
        self.mark
    }

    fn incremental_add(&mut self, c: ConId) -> Result<(), DbError> {
        let mark = self.new_mark();
        let mut overridden = self.satisfy(c, mark)?;
        while let Some(o) = overridden {
            overridden = self.satisfy(o, mark)?;
        }
        Ok(())
    }

    /// Attempts to satisfy `c`, returning the constraint it displaced.
    fn satisfy(&mut self, c: ConId, mark: u64) -> Result<Option<ConId>, DbError> {
        self.choose_method(c, mark);
        if !self.cons[c.0].is_satisfied() {
            if self.cons[c.0].strength == Strength::Required {
                return Err(DbError::RequiredFailure);
            }
            return Ok(None);
        }
        // Mark inputs.
        if let Some(i) = self.cons[c.0].input() {
            self.vars[i.0].mark = mark;
        }
        let out = self.cons[c.0].output();
        let overridden = self.vars[out.0].determined_by;
        if let Some(o) = overridden {
            self.cons[o.0].selected = None;
        }
        self.vars[out.0].determined_by = Some(c);
        if !self.add_propagate(c, mark) {
            return Err(DbError::Cycle);
        }
        self.vars[out.0].mark = mark;
        Ok(overridden)
    }

    fn choose_method(&mut self, c: ConId, mark: u64) {
        let strength = self.cons[c.0].strength;
        match self.cons[c.0].kind {
            Kind::Stay(v) | Kind::Edit(v) => {
                let var = &self.vars[v.0];
                self.cons[c.0].selected = if var.mark != mark && strength.stronger(var.walk) {
                    Some(Selected::Forward)
                } else {
                    None
                };
            }
            Kind::Scale { src, dst, .. } => {
                let (sm, sw) = (self.vars[src.0].mark, self.vars[src.0].walk);
                let (dm, dw) = (self.vars[dst.0].mark, self.vars[dst.0].walk);
                self.cons[c.0].selected = if sm == mark {
                    (dm != mark && strength.stronger(dw)).then_some(Selected::Forward)
                } else if dm == mark {
                    (sm != mark && strength.stronger(sw)).then_some(Selected::Backward)
                } else if sw.stronger(dw) || sw == dw {
                    // Prefer to overwrite the weaker side: src is at least
                    // as strong, so write dst.
                    strength.stronger(dw).then_some(Selected::Forward)
                } else {
                    strength.stronger(sw).then_some(Selected::Backward)
                };
            }
        }
    }

    fn add_propagate(&mut self, c: ConId, mark: u64) -> bool {
        let mut todo = vec![c];
        while let Some(d) = todo.pop() {
            let out = self.cons[d.0].output();
            if self.vars[out.0].mark == mark {
                // Cycle: un-satisfy the constraint we were adding.
                self.cons[c.0].selected = None;
                return false;
            }
            self.recalculate(d);
            self.push_consumers(out, &mut todo);
        }
        true
    }

    fn push_consumers(&self, v: VarId, todo: &mut Vec<ConId>) {
        let determining = self.vars[v.0].determined_by;
        for &c in &self.vars[v.0].constraints {
            if Some(c) != determining && self.cons[c.0].is_satisfied() {
                todo.push(c);
            }
        }
    }

    fn recalculate(&mut self, c: ConId) {
        let strength = self.cons[c.0].strength;
        let out = self.cons[c.0].output();
        // Only a binary (scale) constraint has an input.
        match self.cons[c.0].input() {
            None => {
                self.vars[out.0].walk = strength;
                self.vars[out.0].stay = matches!(self.cons[c.0].kind, Kind::Stay(_));
            }
            Some(input) => {
                self.vars[out.0].walk = strength.weakest_of(self.vars[input.0].walk);
                self.vars[out.0].stay = self.vars[input.0].stay;
                if self.vars[out.0].stay {
                    self.execute(c);
                }
            }
        }
    }

    /// Executes one constraint's selected method.
    fn execute(&mut self, c: ConId) {
        if let Kind::Scale {
            src,
            dst,
            scale,
            offset,
        } = self.cons[c.0].kind
        {
            match self.cons[c.0].selected {
                Some(Selected::Forward) => {
                    self.vars[dst.0].value = self.vars[src.0].value * scale + offset;
                }
                Some(Selected::Backward) => {
                    self.vars[src.0].value = (self.vars[dst.0].value - offset) / scale;
                }
                None => {}
            }
        }
    }

    /// Removes a constraint, re-satisfying whatever it displaced.
    pub fn remove(&mut self, c: ConId) -> Result<(), DbError> {
        if self.cons[c.0].is_satisfied() {
            let out = self.cons[c.0].output();
            self.cons[c.0].selected = None;
            self.vars[out.0].determined_by = None;
            // Detach from the variable lists.
            for v in self.variables_of(c) {
                self.vars[v.0].constraints.retain(|&x| x != c);
            }
            let unsatisfied = self.remove_propagate_from(out);
            // Re-add in strength order, strongest first.
            let mut by_strength = unsatisfied;
            by_strength.sort_by_key(|&u| self.cons[u.0].strength);
            for u in by_strength {
                self.incremental_add(u)?;
            }
        } else {
            for v in self.variables_of(c) {
                self.vars[v.0].constraints.retain(|&x| x != c);
            }
        }
        Ok(())
    }

    fn remove_propagate_from(&mut self, out: VarId) -> Vec<ConId> {
        self.vars[out.0].determined_by = None;
        self.vars[out.0].walk = Strength::Weakest;
        self.vars[out.0].stay = true;
        let mut unsatisfied = Vec::new();
        let mut todo = vec![out];
        while let Some(v) = todo.pop() {
            for &c in &self.vars[v.0].constraints.clone() {
                if !self.cons[c.0].is_satisfied() {
                    unsatisfied.push(c);
                }
            }
            let determining = self.vars[v.0].determined_by;
            for &next in &self.vars[v.0].constraints.clone() {
                if Some(next) != determining && self.cons[next.0].is_satisfied() {
                    self.recalculate(next);
                    todo.push(self.cons[next.0].output());
                }
            }
        }
        unsatisfied
    }

    /// Extracts an execution plan downstream of the given input
    /// constraints (typically edits).
    #[must_use]
    pub fn extract_plan(&mut self, sources: &[ConId]) -> Plan {
        let mark = self.new_mark();
        let mut plan = Vec::new();
        let mut todo: Vec<ConId> = sources
            .iter()
            .copied()
            .filter(|&c| self.cons[c.0].is_input() && self.cons[c.0].is_satisfied())
            .collect();
        while let Some(c) = todo.pop() {
            let out = self.cons[c.0].output();
            if self.vars[out.0].mark != mark && self.inputs_known(c, mark) {
                plan.push(c);
                self.vars[out.0].mark = mark;
                self.push_consumers(out, &mut todo);
            }
        }
        Plan { steps: plan }
    }

    fn inputs_known(&self, c: ConId, mark: u64) -> bool {
        match self.cons[c.0].input() {
            None => true,
            Some(i) => {
                let v = &self.vars[i.0];
                v.mark == mark || v.stay || v.determined_by.is_none()
            }
        }
    }

    /// Executes a plan, propagating current input values downstream.
    pub fn execute_plan(&mut self, plan: &Plan) {
        for &c in &plan.steps {
            self.execute(c);
        }
    }

    /// Convenience: set an edit variable and immediately propagate.
    pub fn set_and_propagate(&mut self, edit: ConId, value: i64) {
        let v = self.cons[edit.0].output();
        self.vars[v.0].value = value;
        let plan = self.extract_plan(&[edit]);
        self.execute_plan(&plan);
    }
}

/// An executable plan: an ordered list of constraint applications.
#[derive(Debug, Clone)]
pub struct Plan {
    steps: Vec<ConId>,
}

impl Plan {
    /// Number of propagation steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// DeltaBlue-driven chain layout of library base addresses:
/// `base[i+1] = base[i] + size[i]` (plus an alignment pad). Editing any
/// base incrementally re-lays everything downstream.
#[derive(Debug)]
pub struct ChainLayout {
    planner: Planner,
    bases: Vec<VarId>,
    edit0: ConId,
}

impl ChainLayout {
    /// Builds a chain for libraries of the given sizes, starting at
    /// `origin`, with `gap` padding between consecutive libraries.
    pub fn new(origin: i64, sizes: &[i64], gap: i64) -> Result<ChainLayout, DbError> {
        let mut planner = Planner::new();
        let mut bases = Vec::with_capacity(sizes.len());
        for _ in sizes {
            bases.push(planner.variable(0));
        }
        for i in 1..sizes.len() {
            planner.scale(
                bases[i - 1],
                bases[i],
                1,
                sizes[i - 1] + gap,
                Strength::Required,
            )?;
        }
        if let Some(last) = bases.last() {
            planner.stay(*last, Strength::WeakDefault)?;
        }
        let edit0 = planner.edit(bases[0], Strength::Preferred)?;
        let mut layout = ChainLayout {
            planner,
            bases,
            edit0,
        };
        layout.move_origin(origin);
        Ok(layout)
    }

    /// Moves the first library (and, via the plan, every downstream one).
    pub fn move_origin(&mut self, origin: i64) {
        self.planner.set_and_propagate(self.edit0, origin);
    }

    /// Current base addresses.
    #[must_use]
    pub fn bases(&self) -> Vec<i64> {
        self.bases.iter().map(|&v| self.planner.value(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic DeltaBlue chain test: a chain of required equalities,
    /// weak stay at the end, preferred edit at the head.
    #[test]
    fn chain_test() {
        let n = 100;
        let mut p = Planner::new();
        let vars: Vec<VarId> = (0..n).map(|_| p.variable(0)).collect();
        for i in 0..n - 1 {
            p.equality(vars[i], vars[i + 1], Strength::Required)
                .unwrap();
        }
        p.stay(vars[n - 1], Strength::StrongDefault).unwrap();
        let edit = p.edit(vars[0], Strength::Preferred).unwrap();
        let plan = p.extract_plan(&[edit]);
        assert_eq!(plan.len(), n, "edit + n-1 propagations");
        for val in [17i64, 42, -5] {
            p.set_value(vars[0], val);
            p.execute_plan(&plan);
            for &v in &vars {
                assert_eq!(p.value(v), val, "value propagated down the chain");
            }
        }
    }

    /// The classic projection test with constant scale/offset.
    #[test]
    fn projection_test() {
        let n = 50;
        let mut p = Planner::new();
        let mut srcs = Vec::new();
        let mut dsts = Vec::new();
        for i in 0..n {
            let s = p.variable(i as i64);
            let d = p.variable(0);
            p.stay(s, Strength::Normal).unwrap();
            p.scale(s, d, 10, 1000, Strength::Required).unwrap();
            srcs.push(s);
            dsts.push(d);
        }
        for (i, d) in dsts.iter().enumerate().take(n) {
            assert_eq!(p.value(*d), i as i64 * 10 + 1000);
        }
        // Edit a source: its projection follows.
        let e = p.edit(srcs[7], Strength::Preferred).unwrap();
        p.set_and_propagate(e, 70);
        assert_eq!(p.value(dsts[7]), 1700);
        p.remove(e).unwrap();
        // Edit a *destination*: the backward method updates the source.
        let e = p.edit(dsts[3], Strength::Preferred).unwrap();
        p.set_and_propagate(e, 2000);
        assert_eq!(p.value(srcs[3]), 100);
    }

    #[test]
    fn weaker_edit_does_not_override_stronger_stay() {
        let mut p = Planner::new();
        let v = p.variable(5);
        p.stay(v, Strength::StrongPreferred).unwrap();
        let e = p.edit(v, Strength::WeakDefault).unwrap();
        // The edit could not be satisfied, so its plan is empty and the
        // value holds.
        let plan = p.extract_plan(&[e]);
        assert!(plan.is_empty());
        assert_eq!(p.value(v), 5);
    }

    #[test]
    fn stronger_edit_displaces_weaker_stay() {
        let mut p = Planner::new();
        let v = p.variable(5);
        p.stay(v, Strength::WeakDefault).unwrap();
        let e = p.edit(v, Strength::Preferred).unwrap();
        p.set_and_propagate(e, 99);
        assert_eq!(p.value(v), 99);
    }

    #[test]
    fn remove_restores_displaced_constraint() {
        let mut p = Planner::new();
        let a = p.variable(1);
        let b = p.variable(0);
        p.equality(b, a, Strength::Required).unwrap();
        p.stay(a, Strength::Normal).unwrap();
        let e = p.edit(b, Strength::Preferred).unwrap();
        p.set_and_propagate(e, 50);
        assert_eq!(p.value(a), 50, "edit drives the equality backward");
        p.remove(e).unwrap();
        // With the edit gone the stay is satisfiable again.
        let e2 = p.edit(a, Strength::Preferred).unwrap();
        p.set_and_propagate(e2, 7);
        assert_eq!(p.value(b), 7);
    }

    #[test]
    fn required_conflict_detected() {
        let mut p = Planner::new();
        let v = p.variable(0);
        p.edit(v, Strength::Required).unwrap();
        // A second required input on the same variable is unsatisfiable.
        assert_eq!(
            p.edit(v, Strength::Required).unwrap_err(),
            DbError::RequiredFailure
        );
    }

    #[test]
    fn chain_layout_places_and_moves_libraries() {
        let sizes = [0x4000i64, 0x8000, 0x2000];
        let mut l = ChainLayout::new(0x0100_0000, &sizes, 0x1000).unwrap();
        assert_eq!(
            l.bases(),
            vec![
                0x0100_0000,
                0x0100_0000 + 0x5000,
                0x0100_0000 + 0x5000 + 0x9000
            ]
        );
        // Move the whole family with one incremental edit.
        l.move_origin(0x0200_0000);
        assert_eq!(l.bases(), vec![0x0200_0000, 0x0200_5000, 0x0200_e000]);
    }

    #[test]
    fn plan_reexecution_is_cheap_and_correct() {
        // The point of DeltaBlue: once planned, re-execution is just the
        // plan steps — no re-satisfaction.
        let sizes: Vec<i64> = (0..64).map(|i| 0x1000 * (i % 4 + 1)).collect();
        let mut l = ChainLayout::new(0, &sizes, 0).unwrap();
        for origin in [0x10_0000i64, 0x20_0000, 0x30_0000] {
            l.move_origin(origin);
            let bases = l.bases();
            assert_eq!(bases[0], origin);
            for i in 1..bases.len() {
                assert_eq!(bases[i], bases[i - 1] + sizes[i - 1]);
            }
        }
    }
}
