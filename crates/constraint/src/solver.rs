//! The prioritized address-space placement solver.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;

use omos_obj::encode::{Reader, Wire, Writer};
use omos_obj::ObjError;

/// Priority levels of §3.5, strongest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// "No two objects may overlap" — never violated.
    Required,
    /// "Existing implementations be reused" — violated only when reuse is
    /// impossible without overlap.
    Strong,
    /// User-supplied placement preference; larger value = weaker.
    Weak(u8),
}

/// The address-region classes a segment can live in, named after the
/// paper's constraint tags (`"T" 0x100000 "D" 0x40200000` in Figure 1).
/// `PolicyData` extends the paper's two classes with a per-process
/// policy-state window: pages there are never shared, so link policies
/// (call-audit counters and the like) get TLS-like private storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionClass {
    /// Text (shareable, low addresses).
    Text,
    /// Data (private, high addresses).
    Data,
    /// Per-process policy state (private zero-fill, above Data).
    PolicyData,
}

impl RegionClass {
    /// The paper's one-letter tag: `"T"`, `"D"`, or `"P"`.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            RegionClass::Text => "T",
            RegionClass::Data => "D",
            RegionClass::PolicyData => "P",
        }
    }

    /// Every class, in wire-code order.
    const ALL: [RegionClass; 3] = [
        RegionClass::Text,
        RegionClass::Data,
        RegionClass::PolicyData,
    ];

    /// Parses the paper's one-letter tag.
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<RegionClass> {
        RegionClass::ALL.into_iter().find(|c| c.tag() == tag)
    }

    /// The default placement window `[lo, hi)` for this class.
    #[must_use]
    pub fn default_window(self) -> (u64, u64) {
        match self {
            RegionClass::Text => (0x0010_0000, 0x4000_0000),
            RegionClass::Data => (0x4000_0000, 0xd000_0000),
            RegionClass::PolicyData => (0xd000_0000, 0xe000_0000),
        }
    }
}

/// One segment of a placement request.
#[derive(Debug, Clone)]
pub struct SegmentRequest {
    /// Which region class the segment must live in.
    pub class: RegionClass,
    /// Size in bytes (already rounded as the caller wishes).
    pub size: u64,
    /// Alignment (power of two).
    pub align: u64,
    /// Weak preference: place at or as close above this address as
    /// possible.
    pub preferred: Option<u64>,
}

/// A placement request for one object (library or program).
#[derive(Debug, Clone)]
pub struct PlacementRequest {
    /// Object name (e.g. `/lib/libc`).
    pub name: String,
    /// Content identity; same name + same key ⇒ reusable placement.
    pub key: u64,
    /// Segments to place, in order.
    pub segments: Vec<SegmentRequest>,
}

/// Where one segment landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Base address.
    pub base: u64,
    /// Size.
    pub size: u64,
}

/// The solver's answer for a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// One allocation per requested segment, in request order.
    pub allocations: Vec<Allocation>,
    /// True if this placement was reused from the table (a cache hit for
    /// the whole bound image).
    pub reused: bool,
    /// Version number: 0 for the first implementation of this (name, key),
    /// incremented each time a conflicting context forces an alternate.
    pub version: u32,
}

/// A recorded constraint conflict — the raw material for the §4.1
/// "system manager could feed that data into OMOS' constraint system"
/// loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictRecord {
    /// Requesting object.
    pub name: String,
    /// Weak preference that could not be honored, if that was the
    /// conflict.
    pub preferred: Option<u64>,
    /// Name of the object occupying the contested range, when known.
    pub occupant: Option<String>,
}

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// No window had a large-enough aligned hole.
    NoSpace {
        /// The request that failed.
        name: String,
        /// Bytes requested.
        size: u64,
    },
    /// A request was malformed (zero alignment, empty, ...).
    BadRequest(String),
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::NoSpace { name, size } => {
                write!(f, "no address space for `{name}` ({size} bytes)")
            }
            PlaceError::BadRequest(s) => write!(f, "bad placement request: {s}"),
        }
    }
}

impl std::error::Error for PlaceError {}

#[derive(Debug, Clone)]
struct Booked {
    name: String,
    alloc: Allocation,
}

/// One reversible solver mutation, logged while a [`PlacementSolver::trial`]
/// runs. Reverting the log newest first restores the exact prior state.
#[derive(Debug)]
enum Undo {
    /// A booking was inserted at `base`, replacing `prior` (if any).
    Booked { base: u64, prior: Option<Booked> },
    /// A booking was removed.
    Released(Booked),
    /// A new version was pushed for `key`; `fresh` if that created the
    /// entry.
    Version { key: (String, u64), fresh: bool },
}

/// A flat, deterministic snapshot of a solver's state, for
/// checkpointing. Produced by [`PlacementSolver::export_state`] and
/// consumed by [`PlacementSolver::import_state`]; entries are sorted so
/// identical solver states export identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolverState {
    /// Live allocations: (owner name, allocation), ordered by base.
    pub booked: Vec<(String, Allocation)>,
    /// Reuse table: (name, key, versions in creation order), ordered by
    /// (name, key).
    pub known: Vec<(String, u64, Vec<Placement>)>,
    /// Conflict log, in record order.
    pub conflicts: Vec<ConflictRecord>,
}

/// A class's wire form: one byte, its index in `RegionClass::ALL`
/// (the declaration order).
impl Wire for RegionClass {
    fn put(&self, w: &mut Writer) {
        w.u8(*self as u8);
    }

    fn get(r: &mut Reader<'_>) -> omos_obj::Result<Self> {
        let code = r.u8()?;
        RegionClass::ALL
            .get(usize::from(code))
            .copied()
            .ok_or_else(|| ObjError::Malformed(format!("bad region class code {code}")))
    }
}

// The checkpoint layout of the solver state.
omos_obj::wire_record! { Allocation { base, size } }
omos_obj::wire_record! { Placement { allocations, reused, version } }
omos_obj::wire_record! { ConflictRecord { name, preferred, occupant } }
omos_obj::wire_record! { SolverState { booked, known, conflicts } }

/// The solver: tracks live allocations, remembers placements per
/// `(name, key)`, and logs conflicts.
///
/// # Examples
///
/// ```
/// use omos_constraint::{PlacementRequest, PlacementSolver, RegionClass, SegmentRequest};
///
/// let mut solver = PlacementSolver::new();
/// let req = PlacementRequest {
///     name: "libc".into(),
///     key: 1,
///     segments: vec![SegmentRequest {
///         class: RegionClass::Text,
///         size: 0x8000,
///         align: 4096,
///         preferred: Some(0x0100_0000),
///     }],
/// };
/// let first = solver.place(&req, &[]).unwrap();
/// assert_eq!(first.allocations[0].base, 0x0100_0000);
/// // The same content is reused, not re-placed.
/// assert!(solver.place(&req, &[]).unwrap().reused);
/// ```
#[derive(Debug, Default)]
pub struct PlacementSolver {
    /// Live allocations, ordered by base address.
    booked: BTreeMap<u64, Booked>,
    /// Reuse table: (name, key) -> list of known-good placements
    /// (alternate versions, in creation order).
    known: HashMap<(String, u64), Vec<Placement>>,
    /// Conflict log.
    conflicts: Vec<ConflictRecord>,
    /// The undo log of the innermost running [`PlacementSolver::trial`];
    /// `None` outside a trial.
    undo: Option<Vec<Undo>>,
}

/// A running trial: reverts the solver when dropped, so the rollback also
/// happens if the trial's body unwinds.
struct Trial<'a> {
    solver: &'a mut PlacementSolver,
    outer: Option<Vec<Undo>>,
    conflicts: usize,
}

impl Drop for Trial<'_> {
    fn drop(&mut self) {
        let log = std::mem::replace(&mut self.solver.undo, self.outer.take());
        for u in log.into_iter().flatten().rev() {
            match u {
                Undo::Booked { base, prior } => {
                    match prior {
                        Some(b) => self.solver.booked.insert(base, b),
                        None => self.solver.booked.remove(&base),
                    };
                }
                Undo::Released(b) => {
                    self.solver.booked.insert(b.alloc.base, b);
                }
                Undo::Version { key, fresh } => {
                    if fresh {
                        self.solver.known.remove(&key);
                    } else if let Some(vs) = self.solver.known.get_mut(&key) {
                        vs.pop();
                    }
                }
            }
        }
        self.solver.conflicts.truncate(self.conflicts);
    }
}

impl PlacementSolver {
    /// Creates an empty solver.
    #[must_use]
    pub fn new() -> PlacementSolver {
        PlacementSolver::default()
    }

    /// Live allocations, for inspection.
    pub fn allocations(&self) -> impl Iterator<Item = (&str, Allocation)> {
        self.booked.values().map(|b| (b.name.as_str(), b.alloc))
    }

    /// The conflict log so far.
    #[must_use]
    pub fn conflicts(&self) -> &[ConflictRecord] {
        &self.conflicts
    }

    /// Runs `f` against this solver, then restores the exact prior
    /// state: every booking inserted or removed and every version
    /// created inside `f` is undone, and the conflict log is cut back to
    /// its length at entry. `f` sees the live solver, so its placements
    /// are the ones the same calls would commit, with no copy of the
    /// state made. Trials nest, and the rollback also runs if `f`
    /// unwinds.
    pub fn trial<R>(&mut self, f: impl FnOnce(&mut PlacementSolver) -> R) -> R {
        let outer = self.undo.replace(Vec::new());
        let conflicts = self.conflicts.len();
        let t = Trial {
            solver: self,
            outer,
            conflicts,
        };
        f(&mut *t.solver)
    }

    /// Books `alloc` for `name`, logging the change inside a trial.
    fn book(&mut self, name: &str, alloc: Allocation) {
        let prior = self.booked.insert(
            alloc.base,
            Booked {
                name: name.to_string(),
                alloc,
            },
        );
        if let Some(log) = &mut self.undo {
            log.push(Undo::Booked {
                base: alloc.base,
                prior,
            });
        }
    }

    /// Drops every booking for which `gone` holds, logging each inside a
    /// trial.
    fn unbook(&mut self, gone: impl Fn(&Booked) -> bool) {
        let bases: Vec<u64> = self
            .booked
            .iter()
            .filter(|(_, b)| gone(b))
            .map(|(&base, _)| base)
            .collect();
        for base in bases {
            if let (Some(b), Some(log)) = (self.booked.remove(&base), &mut self.undo) {
                log.push(Undo::Released(b));
            }
        }
    }

    /// Places (or reuses a placement for) `req`.
    ///
    /// Resolution order mirrors §3.5's priorities: try to **reuse** an
    /// existing version of this exact content whose ranges are free or
    /// already booked by this very object (Strong); then try the **weak**
    /// preferences; then fall back to first-fit. Overlap (Required) is
    /// never violated. The `avoid` list excludes version numbers the
    /// caller already rejected.
    pub fn place(
        &mut self,
        req: &PlacementRequest,
        avoid: &[u32],
    ) -> Result<Placement, PlaceError> {
        if req.segments.is_empty() {
            return Err(PlaceError::BadRequest(format!(
                "`{}` has no segments",
                req.name
            )));
        }
        for s in &req.segments {
            if !s.align.is_power_of_two() {
                return Err(PlaceError::BadRequest(format!(
                    "`{}`: alignment {} not a power of two",
                    req.name, s.align
                )));
            }
        }

        // Strong: reuse a known version whose ranges are available. A
        // version blocked only by this name's *own* stale bookings (a
        // different content version is live — the library was rebound)
        // is unblocked by takeover: one live placement per name, so the
        // rebuilt version releases its predecessor's ranges and lands
        // where a cold solve would have put it. Cross-name occupants
        // are real conflicts and are logged.
        let key = (req.name.clone(), req.key);
        let mut takeover_done = false;
        loop {
            let mut hit = None;
            if let Some(versions) = self.known.get(&key) {
                for p in versions {
                    if avoid.contains(&p.version) {
                        continue;
                    }
                    if self.ranges_available(&req.name, &p.allocations) {
                        hit = Some(p.clone());
                        break;
                    }
                    // Reuse blocked by a foreign occupant: log it. Own
                    // stale bookings are handled by the takeover below.
                    let occupant = p
                        .allocations
                        .iter()
                        .find_map(|a| self.occupant_of(a.base, a.size))
                        .map(str::to_string);
                    if !takeover_done && occupant.as_deref() != Some(req.name.as_str()) {
                        self.conflicts.push(ConflictRecord {
                            name: req.name.clone(),
                            preferred: Some(p.allocations[0].base),
                            occupant,
                        });
                    }
                }
            }
            if let Some(mut reused) = hit {
                reused.reused = true;
                // (Re)book in case the ranges were released.
                for a in &reused.allocations {
                    self.book(&req.name, *a);
                }
                return Ok(reused);
            }
            if takeover_done {
                break;
            }
            // Only *stale* same-name bookings unblock takeover: a
            // booking recorded for a known version of this exact
            // content is a live placement of the same library (e.g. a
            // version the caller merely avoided), and releasing it
            // would unmap a live client. A booking outside this
            // content's version set means the library was rebound —
            // that predecessor yields its ranges.
            let same_content = self.known.get(&key);
            let is_stale = |b: &Booked| {
                b.name == req.name
                    && !same_content
                        .is_some_and(|vs| vs.iter().any(|p| p.allocations.contains(&b.alloc)))
            };
            if !self.booked.values().any(is_stale) {
                break;
            }
            // Release only the *stale* same-name bookings. A live booking
            // of a known same-content version (e.g. one the caller merely
            // avoided) stays mapped — dropping it would unmap a live
            // client. `release()` keeps its full-drop semantics for its
            // other callers; takeover is the one site that must filter.
            let live: Vec<Allocation> = same_content
                .map(|vs| {
                    vs.iter()
                        .flat_map(|p| p.allocations.iter().copied())
                        .collect()
                })
                .unwrap_or_default();
            self.unbook(|b| b.name == req.name && !live.contains(&b.alloc));
            takeover_done = true;
        }

        // Weak preferences, then first-fit.
        let mut allocations = Vec::with_capacity(req.segments.len());
        for seg in &req.segments {
            let base = match self.try_preferred(seg, &allocations) {
                Some(b) => b,
                None => {
                    if seg.preferred.is_some() {
                        let occupant = seg
                            .preferred
                            .and_then(|p| self.occupant_of(p, seg.size.max(1)))
                            .map(str::to_string);
                        self.conflicts.push(ConflictRecord {
                            name: req.name.clone(),
                            preferred: seg.preferred,
                            occupant,
                        });
                    }
                    self.first_fit(seg, &allocations)
                        .ok_or(PlaceError::NoSpace {
                            name: req.name.clone(),
                            size: seg.size,
                        })?
                }
            };
            allocations.push(Allocation {
                base,
                size: seg.size,
            });
        }

        for a in &allocations {
            self.book(&req.name, *a);
        }
        let version = self.known.get(&key).map_or(0, |v| v.len() as u32);
        let placement = Placement {
            allocations,
            reused: false,
            version,
        };
        if let Some(log) = &mut self.undo {
            log.push(Undo::Version {
                key: key.clone(),
                fresh: !self.known.contains_key(&key),
            });
        }
        self.known.entry(key).or_default().push(placement.clone());
        Ok(placement)
    }

    /// Releases all live allocations owned by `name` (the object's ranges
    /// stay in the reuse table and will be preferred next time).
    pub fn release(&mut self, name: &str) {
        self.unbook(|b| b.name == name);
    }

    /// Exports the complete solver state for checkpointing.
    #[must_use]
    pub fn export_state(&self) -> SolverState {
        let booked = self
            .booked
            .values()
            .map(|b| (b.name.clone(), b.alloc))
            .collect();
        let mut known: Vec<(String, u64, Vec<Placement>)> = self
            .known
            .iter()
            .map(|((name, key), versions)| (name.clone(), *key, versions.clone()))
            .collect();
        known.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        SolverState {
            booked,
            known,
            conflicts: self.conflicts.clone(),
        }
    }

    /// Rebuilds a solver from an exported state. Round-trips exactly:
    /// `import_state(&s.export_state())` behaves identically to `s`.
    #[must_use]
    pub fn import_state(state: &SolverState) -> PlacementSolver {
        let mut solver = PlacementSolver::new();
        for (name, alloc) in &state.booked {
            solver.booked.insert(
                alloc.base,
                Booked {
                    name: name.clone(),
                    alloc: *alloc,
                },
            );
        }
        for (name, key, versions) in &state.known {
            solver.known.insert((name.clone(), *key), versions.clone());
        }
        solver.conflicts = state.conflicts.clone();
        solver
    }

    /// Number of distinct versions generated for `(name, key)`.
    #[must_use]
    pub fn version_count(&self, name: &str, key: u64) -> usize {
        self.known.get(&(name.to_string(), key)).map_or(0, Vec::len)
    }

    fn ranges_available(&self, owner: &str, allocs: &[Allocation]) -> bool {
        allocs
            .iter()
            .all(|a| match self.overlapping(a.base, a.size) {
                None => true,
                Some(b) => b.name == owner && b.alloc == *a,
            })
    }

    fn occupant_of(&self, base: u64, size: u64) -> Option<&str> {
        self.overlapping(base, size).map(|b| b.name.as_str())
    }

    fn overlapping(&self, base: u64, size: u64) -> Option<&Booked> {
        let end = base + size;
        // Check the allocation at or before `base`, and any starting within.
        if let Some((_, b)) = self.booked.range(..=base).next_back() {
            if b.alloc.base + b.alloc.size > base {
                return Some(b);
            }
        }
        self.booked.range(base..end).next().map(|(_, b)| b)
    }

    fn is_free(&self, base: u64, size: u64, pending: &[Allocation]) -> bool {
        if self.overlapping(base, size).is_some() {
            return false;
        }
        let end = base + size;
        pending
            .iter()
            .all(|p| p.base + p.size <= base || p.base >= end)
    }

    fn try_preferred(&self, seg: &SegmentRequest, pending: &[Allocation]) -> Option<u64> {
        let p = seg.preferred?;
        let base = align_up(p, seg.align);
        let (_, hi) = seg.class.default_window();
        if base + seg.size <= hi && self.is_free(base, seg.size.max(1), pending) {
            Some(base)
        } else {
            None
        }
    }

    fn first_fit(&self, seg: &SegmentRequest, pending: &[Allocation]) -> Option<u64> {
        let (lo, hi) = seg.class.default_window();
        let mut cursor = align_up(lo, seg.align);
        let size = seg.size.max(1);
        while cursor + size <= hi {
            // Find the next obstruction at or after cursor.
            let obstruction = self
                .booked
                .values()
                .map(|b| (b.alloc.base, b.alloc.base + b.alloc.size))
                .chain(pending.iter().map(|a| (a.base, a.base + a.size)))
                .filter(|&(b, e)| e > cursor && b < cursor + size)
                .min_by_key(|&(b, _)| b);
            match obstruction {
                None => return Some(cursor),
                Some((_, end)) => cursor = align_up(end, seg.align),
            }
        }
        None
    }
}

fn align_up(v: u64, a: u64) -> u64 {
    debug_assert!(a.is_power_of_two());
    (v + a - 1) & !(a - 1)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]
    use super::*;

    fn seg(class: RegionClass, size: u64, preferred: Option<u64>) -> SegmentRequest {
        SegmentRequest {
            class,
            size,
            align: 4096,
            preferred,
        }
    }

    fn req(name: &str, key: u64, segments: Vec<SegmentRequest>) -> PlacementRequest {
        PlacementRequest {
            name: name.into(),
            key,
            segments,
        }
    }

    #[test]
    fn preferred_address_honored_when_free() {
        let mut s = PlacementSolver::new();
        let p = s
            .place(
                &req(
                    "libc",
                    1,
                    vec![seg(RegionClass::Text, 0x4000, Some(0x0100_0000))],
                ),
                &[],
            )
            .unwrap();
        assert_eq!(p.allocations[0].base, 0x0100_0000);
        assert!(!p.reused);
        assert_eq!(p.version, 0);
        assert!(s.conflicts().is_empty());
    }

    #[test]
    fn exact_reuse_on_second_request() {
        let mut s = PlacementSolver::new();
        let r = req(
            "libc",
            1,
            vec![seg(RegionClass::Text, 0x4000, Some(0x0100_0000))],
        );
        let p1 = s.place(&r, &[]).unwrap();
        let p2 = s.place(&r, &[]).unwrap();
        assert!(p2.reused, "same content must reuse the placement");
        assert_eq!(p1.allocations, p2.allocations);
        assert_eq!(p2.version, 0);
    }

    #[test]
    fn rebound_content_takes_over_its_own_range() {
        let mut s = PlacementSolver::new();
        let p1 = s
            .place(
                &req(
                    "libc",
                    1,
                    vec![seg(RegionClass::Text, 0x4000, Some(0x0100_0000))],
                ),
                &[],
            )
            .unwrap();
        // Same name, new key (library was rebuilt): the stale version's
        // booking belongs to this name, so the new version takes the
        // range over — exactly where a cold solve would place it. Not a
        // conflict.
        let p2 = s
            .place(
                &req(
                    "libc",
                    2,
                    vec![seg(RegionClass::Text, 0x4000, Some(0x0100_0000))],
                ),
                &[],
            )
            .unwrap();
        assert!(!p2.reused);
        assert_eq!(p1.allocations[0].base, p2.allocations[0].base);
        assert!(s.conflicts().is_empty());

        // Rebinding *back* strong-reuses the original version in place.
        let p3 = s
            .place(
                &req(
                    "libc",
                    1,
                    vec![seg(RegionClass::Text, 0x4000, Some(0x0100_0000))],
                ),
                &[],
            )
            .unwrap();
        assert!(p3.reused);
        assert_eq!(p3.allocations, p1.allocations);

        // A foreign occupant is still a real conflict.
        let p4 = s
            .place(
                &req(
                    "libm",
                    9,
                    vec![seg(RegionClass::Text, 0x4000, Some(0x0100_0000))],
                ),
                &[],
            )
            .unwrap();
        assert_ne!(p4.allocations[0].base, 0x0100_0000);
        assert_eq!(s.conflicts().len(), 1);
        assert_eq!(s.conflicts()[0].occupant.as_deref(), Some("libc"));
    }

    #[test]
    fn required_no_overlap_beats_weak_preference() {
        let mut s = PlacementSolver::new();
        s.place(
            &req(
                "liba",
                1,
                vec![seg(RegionClass::Text, 0x10000, Some(0x0200_0000))],
            ),
            &[],
        )
        .unwrap();
        let p = s
            .place(
                &req(
                    "libb",
                    2,
                    vec![seg(RegionClass::Text, 0x10000, Some(0x0200_0000))],
                ),
                &[],
            )
            .unwrap();
        let a = 0x0200_0000u64;
        assert!(p.allocations[0].base >= a + 0x10000 || p.allocations[0].base + 0x10000 <= a);
        assert_eq!(s.conflicts().len(), 1);
        assert_eq!(s.conflicts()[0].name, "libb");
        assert_eq!(s.conflicts()[0].occupant.as_deref(), Some("liba"));
    }

    #[test]
    fn multi_segment_requests_place_text_and_data() {
        let mut s = PlacementSolver::new();
        let p = s
            .place(
                &req(
                    "libc",
                    1,
                    vec![
                        seg(RegionClass::Text, 0x8000, Some(0x0010_0000)),
                        seg(RegionClass::Data, 0x2000, Some(0x4020_0000)),
                    ],
                ),
                &[],
            )
            .unwrap();
        assert_eq!(p.allocations.len(), 2);
        assert_eq!(p.allocations[0].base, 0x0010_0000);
        assert_eq!(p.allocations[1].base, 0x4020_0000);
    }

    #[test]
    fn first_fit_skips_over_bookings() {
        let mut s = PlacementSolver::new();
        // Fill the start of the text window.
        let (lo, _) = RegionClass::Text.default_window();
        s.place(
            &req("a", 1, vec![seg(RegionClass::Text, 0x3000, Some(lo))]),
            &[],
        )
        .unwrap();
        let p = s
            .place(
                &req("b", 2, vec![seg(RegionClass::Text, 0x1000, None)]),
                &[],
            )
            .unwrap();
        assert!(p.allocations[0].base >= lo + 0x3000);
    }

    #[test]
    fn avoid_list_forces_alternate_version() {
        let mut s = PlacementSolver::new();
        let r = req(
            "libc",
            1,
            vec![seg(RegionClass::Text, 0x4000, Some(0x0100_0000))],
        );
        let p0 = s.place(&r, &[]).unwrap();
        // A client whose address space can't take version 0 (e.g. it put
        // its own text there) asks for an alternate.
        let p1 = s.place(&r, &[p0.version]).unwrap();
        assert_eq!(p1.version, 1);
        assert_ne!(p0.allocations[0].base, p1.allocations[0].base);
        assert_eq!(s.version_count("libc", 1), 2);
        // Both versions now reusable: a later default request reuses v0.
        let p2 = s.place(&r, &[]).unwrap();
        assert!(p2.reused);
        assert_eq!(p2.version, 0);
    }

    #[test]
    fn release_frees_ranges_and_reuse_restores_them() {
        let mut s = PlacementSolver::new();
        let r = req(
            "libc",
            1,
            vec![seg(RegionClass::Text, 0x4000, Some(0x0100_0000))],
        );
        let p0 = s.place(&r, &[]).unwrap();
        s.release("libc");
        // Someone else may now take the hole...
        let other = s
            .place(
                &req(
                    "intruder",
                    9,
                    vec![seg(RegionClass::Text, 0x1000, Some(0x0100_0000))],
                ),
                &[],
            )
            .unwrap();
        assert_eq!(other.allocations[0].base, 0x0100_0000);
        // ...and libc's reuse is blocked, producing version 1 + a conflict.
        let p1 = s.place(&r, &[]).unwrap();
        assert!(!p1.reused);
        assert_eq!(p1.version, 1);
        assert_ne!(p1.allocations[0].base, p0.allocations[0].base);
        assert!(s
            .conflicts()
            .iter()
            .any(|c| c.occupant.as_deref() == Some("intruder")));
    }

    #[test]
    fn no_space_error() {
        let mut s = PlacementSolver::new();
        let (lo, hi) = RegionClass::Text.default_window();
        let err = s
            .place(
                &req("huge", 1, vec![seg(RegionClass::Text, hi - lo + 1, None)]),
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, PlaceError::NoSpace { .. }));
    }

    #[test]
    fn bad_requests_rejected() {
        let mut s = PlacementSolver::new();
        assert!(matches!(
            s.place(&req("empty", 1, vec![]), &[]),
            Err(PlaceError::BadRequest(_))
        ));
        let bad_align = PlacementRequest {
            name: "x".into(),
            key: 1,
            segments: vec![SegmentRequest {
                class: RegionClass::Text,
                size: 16,
                align: 3,
                preferred: None,
            }],
        };
        assert!(matches!(
            s.place(&bad_align, &[]),
            Err(PlaceError::BadRequest(_))
        ));
    }

    #[test]
    fn alignment_respected() {
        let mut s = PlacementSolver::new();
        let r = PlacementRequest {
            name: "a".into(),
            key: 1,
            segments: vec![SegmentRequest {
                class: RegionClass::Text,
                size: 100,
                align: 0x10000,
                preferred: Some(0x0100_0001),
            }],
        };
        let p = s.place(&r, &[]).unwrap();
        assert_eq!(p.allocations[0].base % 0x10000, 0);
        assert!(p.allocations[0].base >= 0x0100_0001);
    }

    #[test]
    fn state_export_import_roundtrips() {
        let mut s = PlacementSolver::new();
        let r1 = req(
            "libc",
            1,
            vec![seg(RegionClass::Text, 0x4000, Some(0x0100_0000))],
        );
        let p0 = s.place(&r1, &[]).unwrap();
        s.place(&r1, &[p0.version]).unwrap(); // force version 1
        s.place(
            &req("libm", 2, vec![seg(RegionClass::Data, 0x2000, None)]),
            &[],
        )
        .unwrap();
        s.release("libm");
        // Provoke a conflict record.
        s.place(
            &req(
                "libX",
                3,
                vec![seg(RegionClass::Text, 0x4000, Some(0x0100_0000))],
            ),
            &[],
        )
        .unwrap();

        let state = s.export_state();
        let mut restored = PlacementSolver::import_state(&state);

        // Identical externally visible state...
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.conflicts(), s.conflicts());
        assert_eq!(
            restored.allocations().collect::<Vec<_>>(),
            s.allocations().collect::<Vec<_>>()
        );
        assert_eq!(restored.version_count("libc", 1), 2);
        // ...and identical behavior: the same request reuses the same
        // placement in both solvers.
        let a = s.place(&r1, &[]).unwrap();
        let b = restored.place(&r1, &[]).unwrap();
        assert_eq!(a, b);
        assert!(b.reused);
    }

    #[test]
    fn trials_nest_and_roll_back_on_unwind() {
        let mut s = PlacementSolver::new();
        let r = |name: &str, key| {
            req(
                name,
                key,
                vec![seg(RegionClass::Text, 0x4000, Some(0x0100_0000))],
            )
        };
        s.place(&r("libc", 1), &[]).unwrap();
        let before = s.export_state();
        let (inner, outer) = s.trial(|s| {
            // Rebind: libc takes its own range over.
            let outer = s.place(&r("libc", 2), &[]).unwrap();
            let inner = s.trial(|s| s.place(&r("libm", 3), &[]).unwrap());
            // The inner trial's booking is gone again: libm re-places
            // identically, logging the same conflict.
            assert_eq!(s.place(&r("libm", 3), &[]).unwrap(), inner);
            (inner, outer)
        });
        assert_eq!(outer.allocations[0].base, 0x0100_0000);
        assert_ne!(inner.allocations[0].base, 0x0100_0000);
        assert_eq!(s.export_state(), before);

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.trial(|s| {
                s.release("libc");
                s.place(&r("libm", 3), &[]).unwrap();
                panic!("trial body unwinds");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(s.export_state(), before);
        assert!(s.place(&r("libc", 1), &[]).unwrap().reused);
    }

    #[test]
    fn empty_state_roundtrips() {
        let s = PlacementSolver::new();
        let state = s.export_state();
        assert_eq!(state, SolverState::default());
        assert_eq!(PlacementSolver::import_state(&state).export_state(), state);
    }

    #[test]
    fn region_tags_parse() {
        assert_eq!(RegionClass::from_tag("T"), Some(RegionClass::Text));
        assert_eq!(RegionClass::from_tag("D"), Some(RegionClass::Data));
        assert_eq!(RegionClass::from_tag("P"), Some(RegionClass::PolicyData));
        assert_eq!(RegionClass::from_tag("Z"), None);
        let (plo, phi) = RegionClass::PolicyData.default_window();
        let (_, dhi) = RegionClass::Data.default_window();
        assert!(dhi <= plo && plo < phi, "policy window sits above data");
    }

    #[test]
    fn common_case_generates_one_version_per_library() {
        // §4.1: "In the common case only one implementation of each
        // library will ever be generated." Simulate 50 programs sharing
        // three libraries with compatible preferences.
        let mut s = PlacementSolver::new();
        let libs = [
            ("libc", 0x0100_0000u64),
            ("libm", 0x0140_0000),
            ("libX", 0x0180_0000),
        ];
        for _program in 0..50 {
            for (name, pref) in libs {
                let r = req(name, 7, vec![seg(RegionClass::Text, 0x20000, Some(pref))]);
                let p = s.place(&r, &[]).unwrap();
                assert_eq!(p.version, 0);
            }
        }
        for (name, _) in libs {
            assert_eq!(s.version_count(name, 7), 1);
        }
        assert!(s.conflicts().is_empty());
    }
}
