//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use proptest::test_runner::TestRng;

use omos::analysis::manifest::{
    Binding, LibraryResolution, ProgramResolution, ResolutionManifest, CLIENT_DATA_BASE,
    CLIENT_TEXT_BASE, PROGRAM_PROVIDER,
};
use omos::blueprint::{Blueprint, LinkPolicy, PolicyKind};
use omos::core::persist::{decode_blueprint, encode_blueprint};
use omos::link::{link, LinkOptions};
use omos::obj::encode::container::{self, ContainerKind};
use omos::obj::encode::{read, read_any, write, Format};
use omos::obj::view::{RenameTarget, View, ViewKind, ViewOp};
use omos::obj::{
    fnv1a, ContentHash, ObjectFile, Regex, RelocKind, Relocation, Section, SectionKind, Symbol,
};

// --- Strategies -----------------------------------------------------------------

fn arb_symbol_name() -> impl Strategy<Value = String> {
    "[a-z_][a-z0-9_]{0,12}".prop_map(|s| format!("_{s}"))
}

fn arb_reloc_kind() -> impl Strategy<Value = RelocKind> {
    prop_oneof![
        Just(RelocKind::Abs32),
        Just(RelocKind::Pcrel32),
        Just(RelocKind::Abs64),
        Just(RelocKind::Hi16),
        Just(RelocKind::Lo16),
    ]
}

prop_compose! {
    /// A structurally valid object file: one text section with room for
    /// relocations, a data section, unique global symbols, and in-range
    /// relocation sites.
    fn arb_object()(
        text_words in 4usize..64,
        data in proptest::collection::vec(any::<u8>(), 0..64),
        names in proptest::collection::btree_set(arb_symbol_name(), 1..8),
        reloc_spec in proptest::collection::vec((any::<u16>(), arb_reloc_kind(), any::<i32>()), 0..8),
        bss in 0u64..256,
    ) -> ObjectFile {
        let mut o = ObjectFile::new("prop.o");
        let t = o.add_section(Section::with_bytes(
            ".text", SectionKind::Text, vec![0; text_words * 8], 8));
        let d = o.add_section(Section::with_bytes(".data", SectionKind::Data, data, 8));
        o.add_section(Section::bss(".bss", bss, 8));
        let names: Vec<String> = names.into_iter().collect();
        for (i, n) in names.iter().enumerate() {
            let sym = if i % 3 == 2 {
                Symbol::common(n, (i as u64 + 1) * 8)
            } else {
                Symbol::defined(n, t, (i as u64 * 8) % (text_words as u64 * 8))
            };
            o.define(sym).expect("unique names");
        }
        for (j, (site, kind, addend)) in reloc_spec.iter().enumerate() {
            let width = kind.width();
            let limit = text_words as u64 * 8 - width;
            let offset = u64::from(*site) % (limit + 1);
            let sym = &names[j % names.len()];
            o.relocate(Relocation::new(t, offset, *kind, sym).with_addend(i64::from(*addend)));
        }
        let _ = d;
        o
    }
}

// --- Encoding properties ---------------------------------------------------------

proptest! {
    #[test]
    fn encode_roundtrip_aout(obj in arb_object()) {
        let bytes = write(Format::Aout, &obj);
        let back = read(Format::Aout, &bytes).expect("decodes");
        prop_assert_eq!(&back, &obj);
        prop_assert_eq!(back.content_hash(), obj.content_hash());
    }

    #[test]
    fn encode_roundtrip_som(obj in arb_object()) {
        let bytes = write(Format::Som, &obj);
        let back = read(Format::Som, &bytes).expect("decodes");
        prop_assert_eq!(back, obj);
    }

    #[test]
    fn sniffing_always_identifies_own_format(obj in arb_object()) {
        for fmt in [Format::Aout, Format::Som] {
            let bytes = write(fmt, &obj);
            prop_assert_eq!(read_any(&bytes).expect("dispatches"), obj.clone());
        }
    }

    #[test]
    fn truncation_never_panics_and_always_errors(obj in arb_object(), cut in 0usize..100) {
        let bytes = write(Format::Aout, &obj);
        if cut < bytes.len() {
            // Must error (truncated), never panic.
            prop_assert!(read(Format::Aout, &bytes[..cut]).is_err());
        }
    }

    #[test]
    fn corruption_never_panics(obj in arb_object(), pos in any::<u16>(), val in any::<u8>()) {
        let mut bytes = write(Format::Som, &obj);
        let p = pos as usize % bytes.len();
        bytes[p] = val;
        // Decoding may succeed (benign byte) or fail, but must not panic.
        let _ = read(Format::Som, &bytes);
    }
}

// --- Blueprint decoding ---------------------------------------------------------------

/// The ten view-operator spellings.
const VIEW_OPS: [&str; 10] = [
    "rename",
    "rename-refs",
    "rename-defs",
    "hide",
    "show",
    "restrict",
    "project",
    "copy-as",
    "copy_as",
    "freeze",
];

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// Blueprint text for a random m-graph at most `depth` operators deep,
/// over every operator, specialization and the `constrain` sugar.
fn mgraph_text(rng: &mut TestRng, depth: u32) -> String {
    let leaf = format!("/lib/l{}", rng.below(4));
    if depth == 0 {
        return leaf;
    }
    let d = depth - 1;
    match rng.below(9) {
        0 => leaf,
        1 => {
            let n = 1 + rng.below(3);
            let items: Vec<String> = (0..n).map(|_| mgraph_text(rng, d)).collect();
            format!("(merge {})", items.join(" "))
        }
        2 => {
            let (a, b) = (mgraph_text(rng, d), mgraph_text(rng, d));
            format!("(override {a} {b})")
        }
        3 | 4 => {
            let op = pick(rng, &VIEW_OPS);
            let pattern = pick(rng, &["^_a$", "_b", "", "^_[a-m]"]);
            let operand = mgraph_text(rng, d);
            match ViewKind::from_name(op).expect("a view operator") {
                k if k.takes_replacement() => format!("({op} \"{pattern}\" \"_r\" {operand})"),
                _ => format!("({op} \"{pattern}\" {operand})"),
            }
        }
        5 => format!("(initializers {})", mgraph_text(rng, d)),
        6 => "(source \"asm\" \".text\\n_s: ret\\n\")".to_string(),
        7 => {
            let kind = pick(
                rng,
                &[
                    "\"lib-static\"",
                    "\"lib-dynamic\"",
                    "\"lib-dynamic-impl\"",
                    "\"lib-constrained\" (list \"T\" 0x1000000 \"P\" 0x3000000)",
                ],
            );
            format!("(specialize {kind} {})", mgraph_text(rng, d))
        }
        _ => format!("(constrain \"D\" 0x2000000 {})", mgraph_text(rng, d)),
    }
}

fn arb_blueprint_text() -> impl Strategy<Value = String> {
    proptest::strategy::from_fn(|rng: &mut TestRng| {
        let mut src = String::new();
        for _ in 0..rng.below(3) {
            src.push_str(pick(
                rng,
                &[
                    "(constraint-list \"T\" 0x100000)\n",
                    "(constraint-list \"D\" 0x40200000 \"P\" 0x50000000)\n",
                ],
            ));
        }
        for _ in 0..rng.below(3) {
            let kind = pick(rng, &["deny", "trampoline", "audit"]);
            let pattern = pick(rng, &["^_exec", "^_malloc$"]);
            src.push_str(&format!("(policy {kind} \"{pattern}\")\n"));
        }
        src.push_str(&mgraph_text(rng, 5));
        src
    })
}

/// Text mixing blueprint tokens with stray syntax, so parses fail in
/// every way the grammar allows.
fn arb_blueprint_noise() -> impl Strategy<Value = String> {
    const TOKENS: [&str; 24] = [
        "(",
        "(",
        ")",
        ")",
        "\"",
        " ",
        "\n",
        ";",
        "\\",
        "/a",
        "0x",
        "-7",
        "merge",
        "override",
        "hide",
        "rename",
        "copy_as",
        "specialize",
        "\"lib-constrained\"",
        "list",
        "\"T\"",
        "constraint-list",
        "policy",
        "é",
    ];
    proptest::strategy::from_fn(|rng: &mut TestRng| {
        (0..rng.below(40))
            .map(|_| pick(rng, &TOKENS))
            .collect::<String>()
    })
}

proptest! {
    #[test]
    fn blueprint_parse_never_panics(src in arb_blueprint_noise(), raw in "[ -~\n]{0,60}") {
        let _ = Blueprint::parse(&src);
        let _ = Blueprint::parse(&raw);
    }

    #[test]
    fn blueprint_frame_round_trips(src in arb_blueprint_text()) {
        let bp = Blueprint::parse(&src).expect("generated blueprints parse");
        let back = decode_blueprint(&encode_blueprint(&bp)).expect("decodes");
        prop_assert_eq!(&back.root, &bp.root);
        prop_assert_eq!(&back.constraints, &bp.constraints);
        prop_assert_eq!(back.policies, bp.canonical_policies());
        prop_assert_eq!(back.hash(), bp.hash());
    }

    #[test]
    fn resealed_blueprint_corruption_never_panics(
        src in arb_blueprint_text(),
        pos in any::<u16>(),
        val in any::<u8>(),
    ) {
        // Re-sealing gives the flipped payload a valid checksum, so the
        // node decoder itself sees the damage.
        let frame = encode_blueprint(&Blueprint::parse(&src).expect("parses"));
        let mut payload = container::open(ContainerKind::Blueprint, &frame)
            .expect("opens")
            .to_vec();
        let p = usize::from(pos) % payload.len();
        payload[p] ^= val | 1;
        let _ = decode_blueprint(&container::seal(ContainerKind::Blueprint, &payload));
        let _ = decode_blueprint(&container::seal(ContainerKind::Blueprint, &payload[..p]));
    }
}

// --- Resolution-manifest decoding ----------------------------------------------------

prop_compose! {
    /// A manifest with every section populated: libraries, bindings,
    /// interpositions and (sometimes) policies.
    fn arb_manifest()(
        root in any::<u64>(),
        libs in proptest::collection::vec((arb_symbol_name(), any::<u64>(), any::<u32>()), 0..4),
        bindings in proptest::collection::vec((arb_symbol_name(), any::<u32>()), 0..6),
        interpositions in proptest::collection::btree_set(arb_symbol_name(), 0..5),
        policies in proptest::collection::vec((0u8..3, arb_symbol_name()), 0..3),
    ) -> ResolutionManifest {
        ResolutionManifest {
            root: ContentHash(root),
            libraries: libs
                .into_iter()
                .map(|(name, key, base)| LibraryResolution {
                    name,
                    key: ContentHash(key),
                    text_base: base,
                    data_base: base ^ 0x4000_0000,
                    image_key: ContentHash(key.rotate_left(7)),
                })
                .collect(),
            program: ProgramResolution {
                text_base: CLIENT_TEXT_BASE,
                data_base: CLIENT_DATA_BASE,
                image_key: ContentHash(root ^ 1),
            },
            bindings: bindings
                .into_iter()
                .map(|(symbol, addr)| Binding {
                    symbol,
                    provider: PROGRAM_PROVIDER.to_string(),
                    addr,
                })
                .collect(),
            interpositions: interpositions.into_iter().collect(),
            policies: policies
                .into_iter()
                .map(|(k, pattern)| LinkPolicy {
                    kind: [PolicyKind::Deny, PolicyKind::Trampoline, PolicyKind::Audit]
                        [usize::from(k)],
                    pattern,
                })
                .collect(),
        }
    }
}

/// Offset of the interposition count in `m`'s payload: everything
/// before it is the manifest with no interpositions and no policies,
/// minus that empty count.
fn interposition_block_at(m: &ResolutionManifest) -> usize {
    let head = ResolutionManifest {
        interpositions: Vec::new(),
        policies: Vec::new(),
        ..m.clone()
    };
    container::open(ContainerKind::Resolution, &head.encode())
        .expect("opens")
        .len()
        - 4
}

proptest! {
    #[test]
    fn manifest_round_trips(m in arb_manifest()) {
        let back = ResolutionManifest::decode(&m.encode()).expect("decodes");
        prop_assert_eq!(back.hash(), m.hash());
        prop_assert_eq!(back, m);
    }

    #[test]
    fn manifest_decode_never_panics_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        // Raw bytes fail the frame check; sealed ones reach the payload
        // decoder itself.
        let _ = ResolutionManifest::decode(&raw);
        let _ = ResolutionManifest::decode(&container::seal(ContainerKind::Resolution, &raw));
    }

    #[test]
    fn resealed_manifest_corruption_never_panics(
        m in arb_manifest(),
        pos in any::<u16>(),
        val in any::<u8>(),
    ) {
        let mut payload = container::open(ContainerKind::Resolution, &m.encode())
            .expect("opens")
            .to_vec();
        let p = usize::from(pos) % payload.len();
        payload[p] ^= val | 1;
        let _ = ResolutionManifest::decode(&container::seal(ContainerKind::Resolution, &payload));
        let _ = ResolutionManifest::decode(&container::seal(ContainerKind::Resolution, &payload[..p]));
    }

    #[test]
    fn corrupt_interposition_block_never_panics(
        m in arb_manifest(),
        count in any::<u32>(),
        pos in any::<u16>(),
        val in any::<u8>(),
    ) {
        // Aim at the interposition block: a wild count, then a flipped
        // byte anywhere from the count to the end of the payload.
        let at = interposition_block_at(&m);
        let mut payload = container::open(ContainerKind::Resolution, &m.encode())
            .expect("opens")
            .to_vec();
        let mut wild = payload.clone();
        wild[at..at + 4].copy_from_slice(&count.to_le_bytes());
        let _ = ResolutionManifest::decode(&container::seal(ContainerKind::Resolution, &wild));
        let p = at + usize::from(pos) % (payload.len() - at);
        payload[p] ^= val | 1;
        let _ = ResolutionManifest::decode(&container::seal(ContainerKind::Resolution, &payload));
        let _ = ResolutionManifest::decode(&container::seal(ContainerKind::Resolution, &payload[..p]));
    }
}

// --- View properties --------------------------------------------------------------

proptest! {
    #[test]
    fn materialized_view_always_validates(obj in arb_object(), which in 0u8..6) {
        let v = View::from_object(obj);
        let pattern = Regex::new("^_[a-m]").expect("compiles");
        let (kind, replacement) = [
            (ViewKind::Hide, ""),
            (ViewKind::Show, ""),
            (ViewKind::Restrict, ""),
            (ViewKind::Project, ""),
            (ViewKind::CopyAs, "_X"),
            (ViewKind::Rename(RenameTarget::Both), "_Y"),
        ][usize::from(which)];
        let op = ViewOp { kind, pattern, replacement: replacement.into() };
        // Many-to-one copy-as/rename collisions are a legitimate, typed
        // operator error; anything that *does* materialize must be
        // structurally valid with no dangling relocations.
        match v.derive(op).materialize() {
            Err(omos::obj::ObjError::DuplicateSymbol(_)) => {}
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error {other}"))),
            Ok(m) => {
                prop_assert!(m.validate().is_ok());
                for r in &m.relocs {
                    prop_assert!(
                        m.symbols.get(&r.symbol).is_some(),
                        "dangling reloc to {}",
                        r.symbol
                    );
                }
            }
        }
    }

    #[test]
    fn view_hash_is_deterministic(obj in arb_object()) {
        let v1 = View::from_object(obj.clone());
        let v2 = View::from_object(obj);
        let hide = || ViewOp {
            kind: ViewKind::Hide,
            pattern: Regex::new("^_").expect("compiles"),
            replacement: String::new(),
        };
        let a = v1.derive(hide());
        let b = v2.derive(hide());
        prop_assert_eq!(a.content_hash(), b.content_hash());
        prop_assert_eq!(a.materialize().expect("ok").content_hash(),
                        b.materialize().expect("ok").content_hash());
    }

    #[test]
    fn restrict_then_project_leaves_nothing_bound(obj in arb_object()) {
        let v = View::from_object(obj)
            .derive(ViewOp {
                kind: ViewKind::Restrict,
                pattern: Regex::new("").expect("compiles"),
                replacement: String::new(),
            });
        let m = v.materialize().expect("ok");
        use omos::obj::SymbolBinding;
        for s in m.symbols.iter() {
            if s.binding != SymbolBinding::Local && !s.frozen {
                // Commons and absolutes are definitions too; restrict
                // virtualizes them as well.
                prop_assert!(!s.def.is_definition(), "{} still bound", s.name);
            }
        }
    }
}

// --- Linker properties ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn linked_image_has_no_overlaps_and_all_symbols_inside(obj in arb_object()) {
        let mut opts = LinkOptions::library("prop", 0x0040_0000, 0x4000_0000);
        opts.allow_undefined = true;
        let out = link(&[obj], &opts).expect("links");
        prop_assert!(out.image.no_overlap());
        for (&addr, seg_found) in out.image.symbols.values().zip(std::iter::repeat(true)) {
            // Absolute symbols may point anywhere; defined ones must be
            // inside some segment or at a segment end (zero-size tail).
            let inside = out.image.segment_at(addr).is_some()
                || out.image.segments.iter().any(|s| s.end() == u64::from(addr));
            prop_assert!(inside || addr < 0x0040_0000, "symbol at {addr:#x} floats");
            let _ = seg_found;
        }
    }

    #[test]
    fn linking_is_deterministic(obj in arb_object()) {
        let mut opts = LinkOptions::library("prop", 0x0040_0000, 0x4000_0000);
        opts.allow_undefined = true;
        let a = link(std::slice::from_ref(&obj), &opts).expect("links");
        let b = link(&[obj], &opts).expect("links");
        prop_assert_eq!(a.image.content_hash(), b.image.content_hash());
        prop_assert_eq!(a.stats, b.stats);
    }
}

// --- Hash properties ---------------------------------------------------------------------

proptest! {
    #[test]
    fn fnv_collision_free_on_small_distinct_inputs(a in "[a-z]{1,8}", b in "[a-z]{1,8}") {
        if a != b {
            prop_assert_ne!(fnv1a(a.as_bytes()), fnv1a(b.as_bytes()));
        }
    }
}

// --- Regex engine vs a reference matcher for literal patterns -----------------------------

proptest! {
    #[test]
    fn regex_literal_agrees_with_contains(needle in "[a-z]{1,6}", hay in "[a-z]{0,20}") {
        let re = Regex::new(&needle).expect("literal compiles");
        prop_assert_eq!(re.is_match(&hay), hay.contains(&needle));
    }

    #[test]
    fn regex_anchored_literal_agrees_with_eq(needle in "[a-z]{1,6}", hay in "[a-z]{0,8}") {
        let re = Regex::new(&format!("^{needle}$")).expect("compiles");
        prop_assert_eq!(re.is_match(&hay), hay == needle);
    }

    #[test]
    fn regex_replace_preserves_remainder(prefix in "[a-z]{1,4}", rest in "[a-z]{0,6}") {
        let re = Regex::new(&format!("^{prefix}")).expect("compiles");
        let input = format!("{prefix}{rest}");
        prop_assert_eq!(re.replace(&input, "X"), format!("X{rest}"));
    }
}
