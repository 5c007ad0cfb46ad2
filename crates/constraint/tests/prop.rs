//! Property tests for the placement solver and DeltaBlue.

use proptest::prelude::*;

use omos_constraint::deltablue::{ChainLayout, Planner, Strength};
use omos_constraint::{
    PlaceError, Placement, PlacementRequest, PlacementSolver, RegionClass, SegmentRequest,
};
use omos_obj::encode::to_bytes;

fn arb_request(i: usize) -> impl Strategy<Value = PlacementRequest> {
    let classes = prop_oneof![Just(RegionClass::Text), Just(RegionClass::Data)];
    let name = prop_oneof![Just("libA"), Just("libB"), Just("libC"), Just("libD")];
    (
        name,
        0u64..4,
        classes,
        1u64..0x40000,
        prop_oneof![Just(None), (0u64..0x100).prop_map(Some)],
    )
        .prop_map(move |(name, key, class, size, pref_page)| {
            let (lo, _) = class.default_window();
            PlacementRequest {
                name: name.to_string(),
                key,
                segments: vec![SegmentRequest {
                    class,
                    size,
                    align: 4096,
                    preferred: pref_page.map(|p| lo + p * 0x10000),
                }],
            }
        })
        .prop_map(move |r| {
            let _ = i;
            r
        })
}

/// One step of a solver history.
#[derive(Debug, Clone)]
enum Op {
    /// `place(req, avoid)`.
    Place(PlacementRequest, Vec<u32>),
    /// `release(name)`.
    Release(String),
    /// A rebind of `name` to a new key whose data segment cannot fit:
    /// the takeover releases the name's bookings and the weak text
    /// preference may log a conflict before `NoSpace` fails the call.
    NoSpace(String, u64),
}

fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![Just("libA"), Just("libB"), Just("libC"), Just("libD")].prop_map(String::from)
}

fn arb_place() -> impl Strategy<Value = Op> {
    let avoid = proptest::collection::vec(0u32..3, 0..2);
    (arb_request(0), avoid).prop_map(|(r, a)| Op::Place(r, a))
}

/// Placements three times as often as each other kind of step.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_place(),
        arb_place(),
        arb_place(),
        arb_name().prop_map(Op::Release),
        (arb_name(), 100u64..104).prop_map(|(n, k)| Op::NoSpace(n, k)),
    ]
}

/// What one [`Op`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Placed(Result<Placement, PlaceError>),
    Released,
}

/// Runs `ops` on `solver`, returning every call's result.
fn run(solver: &mut PlacementSolver, ops: &[Op]) -> Vec<Outcome> {
    let mut out = Vec::new();
    for op in ops {
        out.push(match op {
            Op::Place(req, avoid) => Outcome::Placed(solver.place(req, avoid)),
            Op::Release(name) => {
                solver.release(name);
                Outcome::Released
            }
            Op::NoSpace(name, key) => {
                let (lo, hi) = RegionClass::Data.default_window();
                let req = PlacementRequest {
                    name: name.clone(),
                    key: *key,
                    segments: vec![
                        SegmentRequest {
                            class: RegionClass::Text,
                            size: 0x4000,
                            align: 4096,
                            preferred: Some(RegionClass::Text.default_window().0),
                        },
                        SegmentRequest {
                            class: RegionClass::Data,
                            size: hi - lo + 1,
                            align: 4096,
                            preferred: None,
                        },
                    ],
                };
                Outcome::Placed(solver.place(&req, &[]))
            }
        });
    }
    out
}

/// Operations that make a trial exercise every kind of undo entry: a
/// rebind taking over its name's range, an avoided version, a rebind
/// back to earlier content re-booking its known placement, a weak
/// preference blocked by another name (a logged conflict), and a
/// `NoSpace` failure with the trial still going on.
fn covering_ops() -> Vec<Op> {
    let text = |name: &str, key: u64| PlacementRequest {
        name: name.to_string(),
        key,
        segments: vec![SegmentRequest {
            class: RegionClass::Text,
            size: 0x4000,
            align: 4096,
            preferred: Some(0x0300_0000),
        }],
    };
    vec![
        Op::Place(text("libA", 200), vec![]),
        Op::Place(text("libA", 201), vec![]),
        Op::Place(text("libA", 201), vec![0]),
        Op::Place(text("libA", 200), vec![]),
        Op::Place(text("libB", 202), vec![]),
        Op::NoSpace("libA".to_string(), 203),
    ]
}

proptest! {
    /// A trial leaves no trace: whatever a history built and whatever
    /// the trial then does, the state exports to the same bytes
    /// afterwards, and the trial's calls return exactly what the same
    /// calls return on a solver rebuilt from the exported state.
    #[test]
    fn a_trial_restores_the_exact_prior_state(
        history in proptest::collection::vec(arb_op(), 0..30),
        before in proptest::collection::vec(arb_op(), 0..10),
        after in proptest::collection::vec(arb_op(), 0..10),
    ) {
        let mut solver = PlacementSolver::new();
        run(&mut solver, &history);
        let state = solver.export_state();
        let bytes = to_bytes(&state);
        let ops: Vec<Op> = before.into_iter().chain(covering_ops()).chain(after).collect();

        let (in_trial, end) = solver.trial(|s| {
            let out = run(s, &ops);
            (out, s.export_state())
        });
        prop_assert_eq!(to_bytes(&solver.export_state()), bytes);

        let mut copy = PlacementSolver::import_state(&state);
        let on_copy = run(&mut copy, &ops);
        prop_assert_eq!(&in_trial, &on_copy);
        prop_assert_eq!(end, copy.export_state());
        // The covering operations did what they are there for.
        let no_space = |o: &Outcome| matches!(o, Outcome::Placed(Err(PlaceError::NoSpace { .. })));
        prop_assert!(in_trial.iter().any(no_space), "no NoSpace failure");
        prop_assert!(copy.conflicts().len() > solver.conflicts().len());
    }

    /// The Required constraint: whatever sequence of placements happens,
    /// no two live allocations ever overlap.
    #[test]
    fn no_two_allocations_ever_overlap(
        reqs in proptest::collection::vec(arb_request(0), 1..40),
    ) {
        let mut solver = PlacementSolver::new();
        for r in &reqs {
            // Placement may legitimately fail only for lack of space.
            let _ = solver.place(r, &[]);
            let mut spans: Vec<(u64, u64)> = solver
                .allocations()
                .map(|(_, a)| (a.base, a.base + a.size))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
            }
        }
    }

    /// The Strong constraint: re-requesting identical content reuses the
    /// identical placement.
    #[test]
    fn identical_rerequest_reuses(req in arb_request(0)) {
        let mut solver = PlacementSolver::new();
        let first = solver.place(&req, &[]);
        if let Ok(first) = first {
            let second = solver.place(&req, &[]).expect("reuse cannot fail");
            prop_assert!(second.reused);
            prop_assert_eq!(first.allocations, second.allocations);
        }
    }

    /// Alignment is always honored.
    #[test]
    fn placements_are_aligned(reqs in proptest::collection::vec(arb_request(0), 1..20)) {
        let mut solver = PlacementSolver::new();
        for r in &reqs {
            if let Ok(p) = solver.place(r, &[]) {
                for a in &p.allocations {
                    prop_assert_eq!(a.base % 4096, 0);
                }
            }
        }
    }

    /// DeltaBlue chain layouts satisfy their defining equation at every
    /// origin, and moves are exact.
    #[test]
    fn chain_invariant_holds(
        sizes in proptest::collection::vec(1i64..0x10000, 1..32),
        origins in proptest::collection::vec(0i64..0x1000_0000, 1..5),
        gap in 0i64..0x1000,
    ) {
        let mut chain = ChainLayout::new(origins[0], &sizes, gap).expect("solvable");
        for &o in &origins {
            chain.move_origin(o);
            let bases = chain.bases();
            prop_assert_eq!(bases[0], o);
            for i in 1..bases.len() {
                prop_assert_eq!(bases[i], bases[i - 1] + sizes[i - 1] + gap);
            }
        }
    }

    /// Planner: an edit constraint propagates through a random chain of
    /// equalities regardless of where the stay sits.
    #[test]
    fn equality_chain_propagates(n in 2usize..30, value in any::<i32>(), stay_at in any::<u16>()) {
        let mut p = Planner::new();
        let vars: Vec<_> = (0..n).map(|_| p.variable(0)).collect();
        for i in 0..n - 1 {
            p.equality(vars[i], vars[i + 1], Strength::Required).expect("satisfiable");
        }
        let stay = vars[stay_at as usize % n];
        p.stay(stay, Strength::WeakDefault).expect("satisfiable");
        let e = p.edit(vars[0], Strength::Preferred).expect("satisfiable");
        p.set_and_propagate(e, i64::from(value));
        for &v in &vars {
            prop_assert_eq!(p.value(v), i64::from(value));
        }
    }
}
