//! The interposition record against the static analyzer.
//!
//! Every `override` conflict is recorded on the module when the
//! evaluator resolves it, and the resolution manifest reports the union
//! of those records ([`interpositions_of`]) — no analyzer runs on the
//! link path. The analyzer still predicts the same list from its
//! symbolic walk, so it is the oracle here: on generated blueprints
//! (override, overrides nested under views, `initializers`,
//! `lib-dynamic`, constrained and meta-object libraries) its sorted,
//! deduplicated `interpositions` must equal the evaluated record — on a cold evaluation, on a repeat
//! served from the warm eval cache, and on one that mixes cached
//! subtrees with fresh work.
//!
//! The paper's figures get the same check in `blueprint_figures.rs`.
//! The last part here runs it through a server, whose
//! evaluation width follows `OMOS_EVAL_JOBS`: the manifest a build
//! attaches to its reply must carry the analyzer's list too.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use omos::analysis::manifest::interpositions_of;
use omos::analysis::{analyze_blueprint_report, LintContext, LintResolved};
use omos::blueprint::eval::{CachedEval, EvalContext, ResolvedNode};
use omos::blueprint::{eval_blueprint, Blueprint, EvalError};
use omos::core::server::NamespaceLint;
use omos::core::{Entry, Omos};
use omos::isa::assemble;
use omos::module::Module;
use omos::obj::{ContentHash, ObjectFile};
use omos::os::ipc::Transport;
use omos::os::CostModel;

/// Objects whose global names collide across operands, so overrides
/// resolve real conflicts: `_f`, `_g`, `_h` repeat between objects,
/// `/o/loc` keeps a *local* `helper` that `/o/glob` defines globally,
/// and `/o/sti` carries a static initializer for `initializers`.
const OBJECTS: [(&str, &str); 6] = [
    (
        "/o/a",
        ".text\n.global _f, _g\n_f: call _g\n ret\n_g: ret\n",
    ),
    ("/o/b", ".text\n.global _f\n_f: li r1, 2\n ret\n"),
    (
        "/o/c",
        ".text\n.global _g, _h\n_g: li r1, 3\n ret\n_h: call _f\n ret\n",
    ),
    (
        "/o/loc",
        ".text\n.global _x\nhelper: ret\n_x: call helper\n ret\n",
    ),
    ("/o/glob", ".text\n.global helper\nhelper: li r1, 4\n ret\n"),
    (
        "/o/sti",
        ".text\n.global _sti_a, _k\n_sti_a: ret\n_k: ret\n",
    ),
];

/// Meta-objects: a constrained library with an override inside, and a
/// plain (inline) meta-object with one.
const METAS: [(&str, &str); 2] = [
    (
        "/m/lib",
        "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(override /o/a /o/b)",
    ),
    ("/m/plain", "(override /o/c /o/a)"),
];

/// One namespace serving the evaluator (with a real eval cache) and the
/// analyzer.
#[derive(Default)]
struct World {
    objects: HashMap<String, Arc<ObjectFile>>,
    metas: HashMap<String, Blueprint>,
    cache: Mutex<HashMap<ContentHash, CachedEval>>,
    dynamic: Mutex<Vec<ContentHash>>,
}

impl World {
    fn add_asm(&mut self, path: &str, src: &str) {
        self.objects.insert(
            path.to_string(),
            Arc::new(assemble(path, src).expect("assembles")),
        );
    }

    fn add_meta(&mut self, path: &str, src: &str) {
        self.metas
            .insert(path.to_string(), Blueprint::parse(src).expect("parses"));
    }
}

fn world() -> World {
    let mut w = World::default();
    for (path, src) in OBJECTS {
        w.add_asm(path, src);
    }
    for (path, src) in METAS {
        w.add_meta(path, src);
    }
    w
}

impl EvalContext for World {
    fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError> {
        if let Some(o) = self.objects.get(path) {
            return Ok(ResolvedNode::Object(Arc::clone(o)));
        }
        match self.metas.get(path) {
            Some(m) => Ok(ResolvedNode::Meta(m.clone())),
            None => Err(EvalError::Resolve(path.to_string())),
        }
    }

    fn cache_get(&self, key: ContentHash) -> Option<CachedEval> {
        self.cache.lock().unwrap().get(&key).cloned()
    }

    fn cache_put(&self, key: ContentHash, module: &Module, deps: &Arc<BTreeSet<String>>) {
        self.cache.lock().unwrap().insert(
            key,
            CachedEval {
                module: module.clone(),
                deps: Arc::clone(deps),
            },
        );
    }

    fn register_dynamic_impl(&self, key: ContentHash, _module: &Module) -> Result<u32, EvalError> {
        let mut dynamic = self.dynamic.lock().unwrap();
        if let Some(i) = dynamic.iter().position(|k| *k == key) {
            return Ok(i as u32);
        }
        dynamic.push(key);
        Ok(dynamic.len() as u32 - 1)
    }
}

/// The analyzer's view of a [`World`].
struct Lint<'a>(&'a World);

impl LintContext for Lint<'_> {
    fn resolve(&mut self, path: &str) -> LintResolved {
        if let Some(o) = self.0.objects.get(path) {
            return LintResolved::Object(Arc::clone(o));
        }
        match self.0.metas.get(path) {
            Some(m) => LintResolved::Meta(m.clone()),
            None => LintResolved::Missing,
        }
    }
}

/// The analyzer's prediction, canonicalized as the manifest stores it.
fn predicted(bp: &Blueprint, lint: &mut dyn LintContext) -> Vec<String> {
    let mut names = analyze_blueprint_report(bp, lint).interpositions;
    names.sort();
    names.dedup();
    names
}

// --- Generated blueprints --------------------------------------------------------

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// Operand-position leaves: every object plus the inline meta-object.
const LEAVES: [&str; 7] = [
    "/o/a", "/o/b", "/o/c", "/o/loc", "/o/glob", "/o/sti", "/m/plain",
];

/// Blueprint text for a random m-graph at most `depth` operators deep.
/// Every generated subtree's text is appended to `subtrees`, so a test
/// can warm the eval cache with some of them first.
fn mgraph(rng: &mut TestRng, depth: u32, subtrees: &mut Vec<String>) -> String {
    let text = if depth == 0 {
        pick(rng, &LEAVES).to_string()
    } else {
        let d = depth - 1;
        match rng.below(10) {
            0 => pick(rng, &LEAVES).to_string(),
            1..=3 => {
                let a = mgraph(rng, d, subtrees);
                let b = mgraph(rng, d, subtrees);
                format!("(override {a} {b})")
            }
            4 | 5 => {
                let op = pick(
                    rng,
                    &[
                        "hide", "show", "restrict", "project", "freeze", "rename", "copy-as",
                    ],
                );
                let pattern = pick(rng, &["^_f$", "^_g$", "^_h$", "helper", "^_"]);
                let operand = mgraph(rng, d, subtrees);
                match op {
                    "rename" | "copy-as" => format!("({op} \"{pattern}\" \"_r\" {operand})"),
                    _ => format!("({op} \"{pattern}\" {operand})"),
                }
            }
            6 => format!("(initializers {})", mgraph(rng, d, subtrees)),
            7 => format!("(specialize \"lib-dynamic\" {})", mgraph(rng, d, subtrees)),
            8 => {
                // A client operand plus shared libraries: the namespace's
                // constrained meta-object, or an inline constrained
                // specialization of a generated subtree.
                let client = mgraph(rng, d, subtrees);
                let lib = if rng.below(2) == 0 {
                    "/m/lib".to_string()
                } else {
                    format!(
                        "(specialize \"lib-constrained\" (list \"T\" 0x2000000) {})",
                        mgraph(rng, d, subtrees)
                    )
                };
                format!("(merge {client} {lib})")
            }
            _ => {
                let a = mgraph(rng, d, subtrees);
                let b = mgraph(rng, d, subtrees);
                format!("(merge {a} {b})")
            }
        }
    };
    subtrees.push(text.clone());
    text
}

/// A generated blueprint plus the texts of its subtrees (root last).
fn arb_case() -> impl Strategy<Value = (Blueprint, Vec<String>)> {
    proptest::strategy::from_fn(|rng: &mut TestRng| {
        let mut subtrees = Vec::new();
        let text = mgraph(rng, 4, &mut subtrees);
        let bp = Blueprint::parse(&text).expect("generated blueprint parses");
        (bp, subtrees)
    })
}

/// Checks one blueprint against the oracle: cold, again from the warm
/// cache, and in a second world where every other subtree was cached
/// first. Returns the evaluated
/// record, or `None` when the blueprint does not evaluate.
fn check_case(bp: &Blueprint, subtrees: &[String]) -> Result<Option<Vec<String>>, TestCaseError> {
    let w = world();
    let want = predicted(bp, &mut Lint(&w));
    let Ok(cold) = eval_blueprint(bp, &w) else {
        return Ok(None);
    };
    prop_assert_eq!(&interpositions_of(&cold), &want, "cold evaluation");
    let warm = eval_blueprint(bp, &w).expect("a repeat evaluates");
    prop_assert!(warm.stats.cache_hits > 0, "the repeat hits the eval cache");
    prop_assert_eq!(&interpositions_of(&warm), &want, "warm evaluation");

    let mixed = world();
    for text in subtrees.iter().step_by(2) {
        let sub = Blueprint::parse(text).expect("subtree parses");
        let _ = eval_blueprint(&sub, &mixed);
    }
    let out = eval_blueprint(bp, &mixed).expect("evaluates with cached subtrees");
    prop_assert_eq!(&interpositions_of(&out), &want, "partly cached evaluation");
    Ok(Some(want))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The evaluated record equals the analyzer's prediction.
    #[test]
    fn evaluated_interpositions_match_the_analyzer(case in arb_case()) {
        check_case(&case.0, &case.1)?;
    }
}

/// The generator reaches the cases the record must survive: evaluable
/// blueprints with interpositions, inside libraries, and behind
/// `lib-dynamic` stubs.
#[test]
fn generated_cases_exercise_every_carrier() {
    let strategy = arb_case();
    let mut rng = TestRng::new(0x1f05);
    let (mut evaluable, mut interposed, mut in_library, mut behind_stubs) = (0, 0, 0, 0);
    for _ in 0..200 {
        let (bp, subtrees) = strategy.new_value(&mut rng);
        let Some(names) = check_case(&bp, &subtrees).expect("oracle holds") else {
            continue;
        };
        evaluable += 1;
        interposed += usize::from(!names.is_empty());
        let out = eval_blueprint(&bp, &world()).expect("evaluated above");
        in_library += usize::from(
            out.libraries
                .iter()
                .any(|l| !l.module.interpositions().is_empty()),
        );
        behind_stubs += usize::from(subtrees.iter().any(|t| {
            let Some(operand) = t.strip_prefix("(specialize \"lib-dynamic\" ") else {
                return false;
            };
            let operand = Blueprint::parse(&operand[..operand.len() - 1]).expect("parses");
            eval_blueprint(&operand, &world()).is_ok_and(|o| !o.module.interpositions().is_empty())
        }));
    }
    assert!(evaluable >= 80, "only {evaluable}/200 evaluate");
    assert!(interposed >= 40, "only {interposed} carry interpositions");
    assert!(
        in_library >= 10,
        "only {in_library} interpose inside a library"
    );
    assert!(
        behind_stubs >= 5,
        "only {behind_stubs} override under lib-dynamic"
    );
}

/// The record is provenance, not content: it moves no content hash, and
/// so no eval-cache, image or manifest key.
#[test]
fn the_record_is_not_part_of_the_content_hash() {
    let w = world();
    let out = eval_blueprint(&Blueprint::parse("(override /o/a /o/b)").unwrap(), &w).unwrap();
    assert_eq!(out.module.interpositions(), ["_f"]);
    let bare = Module::from_object(out.module.materialize().unwrap());
    assert!(bare.interpositions().is_empty());
    assert_eq!(bare.content_hash(), out.module.content_hash());
    let tagged = bare.clone().with_interpositions(&["_zz".to_string()]);
    assert_eq!(tagged.interpositions(), ["_zz"]);
    assert_eq!(tagged.content_hash(), bare.content_hash());
}

// --- Through a server -----------------------------------------------------------------

/// A server whose programs interpose in the client, inside a
/// constrained library, and behind `lib-dynamic` stubs, and share
/// subtrees so later builds are served partly from the eval cache.
fn server_world() -> Omos {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    let objects = [
        (
            "/o/main",
            ".text\n.global _start\n_start: call _f\n call _g\n call _h\n sys 0\n",
        ),
        ("/o/f1", ".text\n.global _f\n_f: li r1, 1\n ret\n"),
        ("/o/f2", ".text\n.global _f\n_f: li r1, 2\n ret\n"),
        ("/o/g1", ".text\n.global _g\n_g: call _q\n ret\n_q: ret\n"),
        ("/o/g2", ".text\n.global _g\n_g: li r1, 5\n ret\n"),
        (
            "/o/h1",
            ".text\n.global _h, _q\n_h: li r1, 7\n ret\n_q: ret\n",
        ),
        ("/o/h2", ".text\n.global _h\n_h: li r1, 8\n ret\n"),
    ];
    for (path, src) in objects {
        s.namespace
            .bind_object(path, assemble(path, src).expect("assembles"));
    }
    let metas = [
        (
            "/lib/g",
            "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(override /o/g1 /o/g2)",
        ),
        ("/bin/p1", "(merge /o/main (override /o/f1 /o/f2) /lib/g (specialize \"lib-dynamic\" (override /o/h1 /o/h2)))"),
        ("/bin/p2", "(merge (hide \"^_zz$\" /o/main) (override /o/f1 /o/f2) /lib/g (specialize \"lib-dynamic\" (override /o/h1 /o/h2)))"),
    ];
    for (path, src) in metas {
        s.namespace.bind_blueprint(path, src).expect("binds");
    }
    s
}

#[test]
fn server_manifests_carry_the_evaluated_interpositions() {
    let s = server_world();
    for path in ["/bin/p1", "/bin/p2", "/bin/p1"] {
        let Some(Entry::Meta(program)) = s.namespace.lookup(path) else {
            panic!("{path} is bound to a blueprint");
        };
        let want = predicted(&program, &mut NamespaceLint(&s.namespace));
        assert_eq!(want, ["_f", "_g", "_h"], "analyzer on {path}");
        let explained = s.explain(path).expect("derives");
        assert_eq!(explained.interpositions, want, "explain {path}");
        let reply = s.instantiate(path).expect("instantiates");
        assert_eq!(reply.manifest, explained.hash(), "reply manifest of {path}");
    }
}
