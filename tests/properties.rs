//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use proptest::test_runner::TestRng;

use std::collections::HashMap;
use std::sync::OnceLock;

use omos::analysis::manifest::{
    Binding, LibraryResolution, ProgramResolution, ResolutionManifest, CLIENT_DATA_BASE,
    CLIENT_TEXT_BASE, PROGRAM_PROVIDER,
};
use omos::blueprint::{Blueprint, LinkPolicy, PolicyKind};
use omos::constraint::{Allocation, ConflictRecord, Placement, SolverState};
use omos::core::json::{self, Json};
use omos::core::persist::{decode_blueprint, encode_blueprint, RestoreReport};
use omos::core::{Entry, Omos};
use omos::isa::assemble;
use omos::link::{decode_image, encode_image, link, LinkOptions, LinkStats, LinkedImage, Segment};
use omos::obj::encode::container::{self, ContainerKind};
use omos::obj::encode::{
    from_bytes, read, read_any, to_bytes, write, Format, Reader, Trailing, Wire, Writer,
};
use omos::obj::view::{RenameTarget, View, ViewKind, ViewOp};
use omos::obj::{
    fnv1a, ContentHash, ObjectFile, Regex, RelocKind, Relocation, Section, SectionKind, Symbol,
};
use omos::os::ipc::Transport;
use omos::os::{CostModel, InMemFs, SimClock};

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

// --- Persisted records: the wire codec, images and checkpoint restore --------------
//
// Every record the server persists is declared once with `wire_record!`.
// These properties hold each decoder to round trips, and feed it
// arbitrary bytes and resealed damage (flipped bytes, wild counts, cut
// payloads): the result is a typed error or a counted restore drop, never
// a panic.

proptest! {
    #[test]
    fn persist_wire_scalars_round_trip(
        a in any::<u8>(),
        b in any::<u16>(),
        c in any::<u32>(),
        d in any::<u64>(),
        e in any::<i64>(),
        s in "[a-z_ ]{0,12}",
    ) {
        let mut w = Writer::new();
        w.u8(a);
        w.u16(b);
        w.u32(c);
        w.u64(d);
        w.i64(e);
        w.str(&s);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(r.u8().expect("u8"), a);
        prop_assert_eq!(r.u16().expect("u16"), b);
        prop_assert_eq!(r.u32().expect("u32"), c);
        prop_assert_eq!(r.u64().expect("u64"), d);
        prop_assert_eq!(r.i64().expect("i64"), e);
        prop_assert_eq!(r.str().expect("str"), s);
        prop_assert!(r.finish().is_ok());
    }

    #[test]
    fn persist_wire_short_reads_error_and_consume_nothing(
        raw in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let mut r = Reader::new(&raw);
        prop_assert!(r.u64().is_err());
        prop_assert_eq!(r.remaining(), raw.len());
    }

    #[test]
    fn persist_wire_byte_runs_and_maps_are_canonical(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        names in proptest::collection::btree_set(arb_symbol_name(), 0..6),
    ) {
        // A byte vector is its count, then the bytes as they are.
        let enc = to_bytes(&bytes);
        prop_assert_eq!(&enc[..4], &(bytes.len() as u32).to_le_bytes()[..]);
        prop_assert_eq!(&enc[4..], &bytes[..]);
        prop_assert_eq!(from_bytes::<Vec<u8>>(&enc).expect("decodes"), bytes);
        // Two maps with the same entries encode identically, whatever
        // order each one iterates in.
        let a: HashMap<String, u32> = names.iter().cloned().zip(0..).collect();
        let b: HashMap<String, u32> = names.iter().rev().cloned().zip((0..names.len() as u32).rev()).collect();
        prop_assert_eq!(to_bytes(&a), to_bytes(&b));
        prop_assert_eq!(from_bytes::<HashMap<String, u32>>(&to_bytes(&a)).expect("decodes"), a);
    }
}

#[test]
fn persist_wire_tags_lengths_and_trailing_bytes_are_checked() {
    assert_eq!(from_bytes::<bool>(&[1]).ok(), Some(true));
    assert!(from_bytes::<bool>(&[2]).is_err());
    assert_eq!(from_bytes::<Option<u8>>(&[1, 9]).ok(), Some(Some(9)));
    assert!(from_bytes::<Option<u8>>(&[2, 9]).is_err());
    // A count or length beyond the buffer fails before anything is
    // allocated for it.
    let wild = [0xff, 0xff, 0xff, 0xff, b'x'];
    assert!(from_bytes::<String>(&wild).is_err());
    assert!(from_bytes::<Vec<u8>>(&wild).is_err());
    assert!(from_bytes::<Vec<(u64, String)>>(&wild).is_err());
    assert!(
        from_bytes::<String>(&[2, 0, 0, 0, 0xff, 0xfe]).is_err(),
        "not UTF-8"
    );
    assert!(from_bytes::<u8>(&[1, 2]).is_err(), "a trailing byte");
}

/// One way to damage a payload before it is resealed: flip a byte,
/// overwrite four bytes with a wild count, or cut the payload short.
#[derive(Debug, Clone, Copy)]
struct Damage {
    how: u8,
    pos: u16,
    val: u32,
}

impl Damage {
    fn apply(self, payload: &[u8]) -> Vec<u8> {
        let mut out = payload.to_vec();
        if out.is_empty() {
            return out;
        }
        let p = usize::from(self.pos) % out.len();
        match self.how % 3 {
            0 => out[p] ^= (self.val as u8) | 1,
            1 => {
                let end = (p + 4).min(out.len());
                out[p..end].copy_from_slice(&self.val.to_le_bytes()[..end - p]);
            }
            _ => out.truncate(p),
        }
        out
    }
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    (any::<u8>(), any::<u16>(), any::<u32>()).prop_map(|(how, pos, val)| Damage { how, pos, val })
}

prop_compose! {
    /// An image with up to four segments of every kind, a symbol table,
    /// and an entry point or none.
    fn arb_image()(
        name in "[a-z]{1,8}",
        segments in proptest::collection::vec(
            (0u8..4, any::<u32>(), 0u64..4096, proptest::collection::vec(any::<u8>(), 0..48)),
            0..4,
        ),
        symbols in proptest::collection::vec((arb_symbol_name(), any::<u32>()), 0..6),
        entry in any::<u32>(),
        has_entry in any::<bool>(),
    ) -> LinkedImage {
        LinkedImage {
            name,
            segments: segments
                .into_iter()
                .map(|(code, vaddr, zero, bytes)| Segment {
                    name: format!(".s{code}"),
                    kind: SectionKind::from_code(code).expect("codes 0-3 are kinds"),
                    vaddr,
                    bytes: bytes.into(),
                    zero,
                })
                .collect(),
            symbols: symbols.into_iter().collect(),
            entry: has_entry.then_some(entry),
        }
    }
}

prop_compose! {
    /// Solver state with bookings, known versions and both kinds of
    /// conflict record.
    fn arb_solver_state()(
        booked in proptest::collection::vec((arb_symbol_name(), any::<u64>(), any::<u64>()), 0..4),
        known in proptest::collection::vec(
            (
                arb_symbol_name(),
                any::<u64>(),
                proptest::collection::vec((any::<u64>(), any::<bool>(), any::<u32>()), 0..3),
            ),
            0..3,
        ),
        conflicts in proptest::collection::vec((arb_symbol_name(), any::<u64>(), any::<u8>()), 0..3),
    ) -> SolverState {
        let alloc = |base: u64| Allocation { base, size: base.rotate_left(9) };
        SolverState {
            booked: booked.into_iter().map(|(n, b, _)| (n, alloc(b))).collect(),
            known: known
                .into_iter()
                .map(|(n, key, versions)| {
                    let versions = versions
                        .into_iter()
                        .map(|(base, reused, version)| Placement {
                            allocations: vec![alloc(base), alloc(!base)],
                            reused,
                            version,
                        })
                        .collect();
                    (n, key, versions)
                })
                .collect(),
            conflicts: conflicts
                .into_iter()
                .map(|(name, p, which)| ConflictRecord {
                    occupant: (which & 1 == 1).then(|| format!("{name}_occupant")),
                    preferred: (which & 2 == 2).then_some(p),
                    name,
                })
                .collect(),
        }
    }
}

proptest! {
    /// A segment's shared byte buffer keeps the `Vec<u8>` wire form, so
    /// spilled and checkpointed images encode as they always did.
    #[test]
    fn persist_shared_bytes_encode_like_a_vec(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let shared: std::sync::Arc<[u8]> = bytes.clone().into();
        prop_assert_eq!(to_bytes(&shared), to_bytes(&bytes));
    }

    #[test]
    fn persist_image_round_trips(img in arb_image()) {
        let frame = encode_image(&img);
        let back = decode_image(&frame).expect("decodes");
        prop_assert_eq!(back.content_hash(), img.content_hash());
        prop_assert_eq!(encode_image(&back), frame);
        prop_assert_eq!(back, img);
    }

    #[test]
    fn persist_image_decode_never_panics_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let _ = decode_image(&raw);
        let _ = decode_image(&container::seal(ContainerKind::Image, &raw));
    }

    #[test]
    fn persist_resealed_image_damage_never_panics(img in arb_image(), damage in arb_damage()) {
        let frame = encode_image(&img);
        let payload = container::open(ContainerKind::Image, &frame).expect("opens");
        let _ = decode_image(&container::seal(ContainerKind::Image, &damage.apply(payload)));
    }

    #[test]
    fn persist_solver_state_and_link_stats_round_trip(
        state in arb_solver_state(),
        n in proptest::collection::vec(any::<u64>(), 6),
    ) {
        prop_assert_eq!(from_bytes::<SolverState>(&to_bytes(&state)).expect("decodes"), state);
        let stats = LinkStats {
            objects: n[0],
            symbols_resolved: n[1],
            relocs_applied: n[2],
            bytes_copied: n[3],
            externs_bound: n[4],
            left_unresolved: n[5],
        };
        prop_assert_eq!(from_bytes::<LinkStats>(&to_bytes(&stats)).expect("decodes"), stats);
    }
}

#[test]
fn persist_image_frame_damage_is_rejected() {
    let mut symbols = HashMap::new();
    symbols.insert("_sin".to_string(), 0x1000);
    symbols.insert("_cos".to_string(), 0x1020);
    let img = LinkedImage {
        name: "libm.so".into(),
        segments: vec![
            Segment {
                name: ".text".into(),
                kind: SectionKind::Text,
                vaddr: 0x1000,
                bytes: (0..64u8).collect(),
                zero: 0,
            },
            Segment {
                name: ".bss".into(),
                kind: SectionKind::Bss,
                vaddr: 0x2000,
                bytes: vec![].into(),
                zero: 512,
            },
        ],
        symbols,
        entry: Some(0x1000),
    };
    let frame = encode_image(&img);
    assert_eq!(decode_image(&frame).expect("decodes"), img);
    for i in 0..frame.len() {
        let mut bad = frame.clone();
        bad[i] ^= 0x40;
        assert!(decode_image(&bad).is_err(), "bit flip at byte {i}");
    }
    for cut in [0, 1, frame.len() / 2, frame.len() - 1] {
        assert!(decode_image(&frame[..cut]).is_err(), "truncated at {cut}");
    }
}

const CKPT: &str = "/ckpt";
const SLOT_A: &str = "/ckpt/manifest.a";
const SLOT_B: &str = "/ckpt/manifest.b";
const JOURNAL: &str = "/ckpt/journal";

/// The checkpoint manifest's layout, spelled with the codec's public
/// pieces. Tuples concatenate their fields, so nested pairs read the
/// same bytes as the server's records.
type NsRow = (String, u8, Vec<u8>);
type ImageRow = ((ContentHash, u64), (ContentHash, LinkStats));
type ReplyRow = (
    (ContentHash, ContentHash, Vec<ContentHash>),
    (Vec<String>, Vec<u8>, Vec<u8>),
);
type ManifestMirror = (
    (u64, String, Vec<NsRow>),
    (Vec<ImageRow>, SolverState, Vec<ReplyRow>),
);

/// Every file of a checkpoint to damage: a program with an audit policy
/// over a constrained library, a second library whose text preference
/// collides with the first (a logged conflict), and a journal bind and
/// unbind written after the checkpoint.
fn checkpoint_files() -> &'static [(String, Vec<u8>)] {
    static FILES: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
        for (path, src) in [
            (
                "/obj/hello.o",
                ".text\n.global _start\n_start: call _puts\n sys 0\n",
            ),
            (
                "/libc/stdio.o",
                ".text\n.global _puts\n_puts: li r1, 7\n ret\n",
            ),
            (
                "/obj/math.o",
                ".text\n.global _start\n_start: call _sin\n sys 0\n",
            ),
            ("/libm/sin.o", ".text\n.global _sin\n_sin: li r1, 2\n ret\n"),
        ] {
            s.namespace
                .bind_object(path, assemble(path, src).expect("assembles"));
        }
        for (path, src) in [
            (
                "/lib/libc",
                "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge /libc/stdio.o)",
            ),
            (
                "/lib/libm",
                "(constraint-list \"T\" 0x1000000 \"D\" 0x42000000)\n(merge /libm/sin.o)",
            ),
            (
                "/bin/hello",
                "(policy audit \"^_puts$\")\n(merge /obj/hello.o /lib/libc)",
            ),
            ("/bin/math", "(merge /obj/math.o /lib/libm)"),
        ] {
            s.namespace.bind_blueprint(path, src).expect("parses");
        }
        for path in ["/bin/hello", "/bin/math"] {
            s.instantiate(path).expect("instantiates");
        }
        let (mut fs, mut clock, cost) = (InMemFs::new(), SimClock::new(), CostModel::hpux());
        s.checkpoint(&mut fs, &mut clock, CKPT)
            .expect("checkpoints");
        let late = assemble("late.o", ".text\nnop\n").expect("assembles");
        s.bind_object_durable("/obj/late.o", late, &mut fs, &mut clock, CKPT)
            .expect("binds");
        s.unbind_durable("/obj/late.o", &mut fs, &mut clock, CKPT)
            .expect("unbinds");
        let mut files = Vec::new();
        for dir in [CKPT.to_string(), format!("{CKPT}/img")] {
            for (name, stat) in fs.list_dir(&dir, &mut clock, &cost).expect("lists") {
                if stat.mode == 0 {
                    let path = format!("{dir}/{name}");
                    let bytes = fs.peek(&path).expect("reads").to_vec();
                    files.push((path, bytes));
                }
            }
        }
        files
    })
}

fn checkpoint_file(path: &str) -> &'static [u8] {
    let (_, bytes) = checkpoint_files()
        .iter()
        .find(|(p, _)| p == path)
        .expect("the checkpoint wrote it");
    bytes
}

fn manifest_payload() -> Vec<u8> {
    container::open(ContainerKind::Manifest, checkpoint_file(SLOT_A))
        .expect("opens")
        .to_vec()
}

fn manifest_mirror() -> ManifestMirror {
    from_bytes(&manifest_payload()).expect("the mirror reads the manifest")
}

/// Both manifest slots, sealed around `payload`.
fn both_slots(payload: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let sealed = container::seal(ContainerKind::Manifest, payload);
    vec![(SLOT_A, sealed.clone()), (SLOT_B, sealed)]
}

/// Restores from the checkpoint with the files in `replace` swapped in.
fn restore_with(replace: &[(&str, Vec<u8>)]) -> RestoreReport {
    let mut fs = InMemFs::new();
    for (path, bytes) in checkpoint_files() {
        let bytes = replace
            .iter()
            .find(|(p, _)| p == path)
            .map_or(bytes, |(_, b)| b);
        fs.put(path, bytes.clone());
    }
    let (_, report) = Omos::restore(
        CostModel::hpux(),
        Transport::SysVMsg,
        &mut fs,
        &mut SimClock::new(),
        CKPT,
    );
    assert_eq!(report.dropped as u64, report.drops.total());
    report
}

#[test]
fn persist_checkpoint_files_match_their_declared_layouts() {
    let payload = manifest_payload();
    let m = manifest_mirror();
    assert_eq!(to_bytes(&m), payload);
    let ((_, _, ns), (images, solver, replies)) = &m;
    assert!(!ns.is_empty() && !images.is_empty());
    assert_eq!(replies.len(), 2);
    assert!(solver.conflicts.iter().any(|c| c.preferred.is_some()));
    let (frames, damaged) = container::scan_frames(checkpoint_file(JOURNAL));
    assert!(!damaged);
    assert_eq!(frames.len(), 4, "a bind and an unbind, each written twice");
    for (kind, payload) in frames {
        assert_eq!(kind, ContainerKind::JournalRecord);
        let mut r = Reader::new(payload);
        let op = u8::get(&mut r).expect("op");
        let path = String::get(&mut r).expect("path");
        let frame: Vec<u8> = Trailing::get(&mut r).expect("frame");
        r.finish().expect("nothing trails");
        assert_eq!(path, "/obj/late.o");
        assert_eq!(frame.is_empty(), op == 2, "only an unbind carries no frame");
    }
    let clean = restore_with(&[]);
    assert!(!clean.cold);
    assert_eq!(
        (clean.replies, clean.dropped, clean.journal_records),
        (2, 0, 2)
    );
}

#[test]
fn persist_option_tag_two_is_malformed_and_the_twin_slot_restores() {
    let payload = manifest_payload();
    let m = manifest_mirror();
    let conflict =
        m.1 .1
            .conflicts
            .iter()
            .find(|c| c.preferred.is_some())
            .expect("a conflict");
    let record = to_bytes(conflict);
    let at = payload
        .windows(record.len())
        .position(|w| w == record)
        .expect("the conflict's bytes");
    let mut bad = payload.clone();
    // The tag of `preferred`, after the name's length and bytes.
    bad[at + 4 + conflict.name.len()] = 2;
    let sealed = container::seal(ContainerKind::Manifest, &bad);
    let one = restore_with(&[(SLOT_A, sealed)]);
    assert!(!one.cold, "the twin slot restores");
    assert_eq!(one.replies, 2);
    let both = restore_with(&both_slots(&bad));
    assert!(both.cold, "tag 2 is malformed, not `Some`");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn persist_restore_survives_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        restore_with(&[(SLOT_A, raw.clone()), (SLOT_B, raw.clone())]);
        restore_with(&both_slots(&raw));
        let journal = restore_with(&[(JOURNAL, raw)]);
        prop_assert!(!journal.cold);
    }

    #[test]
    fn persist_restore_survives_resealed_manifest_damage(damage in arb_damage()) {
        restore_with(&both_slots(&damage.apply(&manifest_payload())));
    }

    #[test]
    fn persist_restore_drops_a_damaged_namespace_frame(
        which in any::<u16>(),
        kind in any::<u8>(),
        damage in arb_damage(),
    ) {
        let mut m = manifest_mirror();
        let ns = &mut m.0 .2;
        let i = usize::from(which) % ns.len();
        let (_, entry_kind, frame) = &mut ns[i];
        let inner = if *entry_kind == 0 { ContainerKind::Object } else { ContainerKind::Blueprint };
        let payload = container::open(inner, frame).expect("opens").to_vec();
        *frame = container::seal(inner, &damage.apply(&payload));
        if kind.is_multiple_of(4) {
            *entry_kind = kind;
        }
        let r = restore_with(&both_slots(&to_bytes(&m)));
        prop_assert!(!r.cold, "a damaged binding is dropped, not the manifest");
        prop_assert!(r.drops.ns_decode <= 1);
    }

    #[test]
    fn persist_restore_drops_a_damaged_reply_row(which in any::<u16>(), damage in arb_damage()) {
        let mut m = manifest_mirror();
        let replies = &mut m.1 .2;
        let rows = replies.len();
        let (_, (_, blueprint, manifest)) = &mut replies[usize::from(which) % rows];
        let (frame, kind) = if which & 1 == 0 {
            (blueprint, ContainerKind::Blueprint)
        } else {
            (manifest, ContainerKind::Resolution)
        };
        let payload = container::open(kind, frame).expect("opens").to_vec();
        *frame = container::seal(kind, &damage.apply(&payload));
        let r = restore_with(&both_slots(&to_bytes(&m)));
        prop_assert!(!r.cold);
        prop_assert_eq!(r.replies + r.drops.reply_manifest as usize, rows);
    }

    #[test]
    fn persist_restore_survives_journal_damage(which in any::<u8>(), damage in arb_damage()) {
        let (frames, _) = container::scan_frames(checkpoint_file(JOURNAL));
        let i = usize::from(which) % frames.len();
        let journal: Vec<u8> = frames
            .iter()
            .enumerate()
            .flat_map(|(j, (kind, payload))| {
                let payload = if j == i { damage.apply(payload) } else { payload.to_vec() };
                container::seal(*kind, &payload)
            })
            .collect();
        let r = restore_with(&[(JOURNAL, journal)]);
        prop_assert!(!r.cold);
        prop_assert!(r.journal_records + r.drops.journal_apply as usize <= frames.len());
    }
}

// --- JSON reader and writer -------------------------------------------------------

/// Text mixing JSON tokens and broken escapes, one case in eight behind
/// 100,000 open containers: far deeper than the reader's nesting bound,
/// deep enough to overflow an unbounded recursive reader.
fn arb_json_noise() -> impl Strategy<Value = String> {
    const TOKENS: [&str; 24] = [
        "[", "]", "{", "}", ":", ",", " ", "\"", "\"k\"", "\\", "\\u", "\\ud83d", "\\ude00", "d8",
        "0", "-", "1.5", "e+", "01", "true", "nul", "é", "\u{1}", "\n",
    ];
    proptest::strategy::from_fn(|rng: &mut TestRng| {
        let deep = match rng.below(8) {
            0 => pick(rng, &["[", "{\"a\":"]).repeat(100_000),
            _ => String::new(),
        };
        let tail: String = (0..rng.below(40)).map(|_| pick(rng, &TOKENS)).collect();
        deep + &tail
    })
}

/// A string drawing on every character class the writer must escape.
fn json_string(rng: &mut TestRng) -> String {
    const CHARS: [char; 16] = [
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é',
        '\u{2028}', '😀', 'a', ' ',
    ];
    (0..rng.below(8))
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
        .collect()
}

/// A JSON value at most `depth` containers deep.
fn json_value(rng: &mut TestRng, depth: u32) -> Json {
    let scalars = 6;
    let arms = if depth == 0 { scalars } else { scalars + 2 };
    match rng.below(arms) {
        0 => Json::Null,
        1 => Json::from(rng.below(2) == 1),
        2 => Json::from(rng.next_u64()),
        3 => Json::from(rng.next_u64() as i64),
        4 => Json::fixed(rng.next_u64() as i64 as f64 / 1e6, rng.below(6) as usize),
        5 => Json::from(json_string(rng)),
        6 => Json::Arr(
            (0..rng.below(4))
                .map(|_| json_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (json_string(rng), json_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #[test]
    fn json_parse_never_panics(noise in arb_json_noise(), raw in "[ -~\n]{0,60}") {
        let _ = json::parse(&noise);
        let _ = json::parse(&raw);
    }

    #[test]
    fn json_render_round_trips(
        v in proptest::strategy::from_fn(|rng: &mut TestRng| json_value(rng, 4)),
    ) {
        prop_assert_eq!(json::parse(&v.render()), Ok(v));
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

// --- Memoized blueprint keys ------------------------------------------------------

/// Paths a key-memo history binds; one is spelled un-normalized.
const MEMO_PATHS: [&str; 3] = ["/bin/a", "lib//b/", "/bin/c"];

/// One durable namespace step in a key-memo history.
#[derive(Debug, Clone)]
enum NsOp {
    BindMeta(usize, String),
    BindObject(usize),
    Unbind(usize),
    Checkpoint,
    Restore,
}

fn arb_ns_ops() -> impl Strategy<Value = Vec<NsOp>> {
    proptest::strategy::from_fn(|rng: &mut TestRng| {
        (0..1 + rng.below(12))
            .map(|_| {
                let p = rng.below(MEMO_PATHS.len() as u64) as usize;
                match rng.below(8) {
                    0..=2 => NsOp::BindMeta(p, mgraph_text(rng, 3)),
                    3 => NsOp::BindObject(p),
                    4 => NsOp::Unbind(p),
                    5 | 6 => NsOp::Checkpoint,
                    _ => NsOp::Restore,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The key a meta-object is bound with always equals its
    /// blueprint's hash, through binds, rebinds, unbinds, checkpoints,
    /// and restores (which replay the journal written since the last
    /// checkpoint); objects carry no key.
    #[test]
    fn memoized_blueprint_keys_match_their_blueprints(ops in arb_ns_ops()) {
        const DIR: &str = "/omos";
        let (mut fs, mut clock) = (InMemFs::new(), SimClock::new());
        let mut s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
        // What each path should hold: a meta-object (true) or an object.
        let mut model: HashMap<usize, bool> = HashMap::new();
        for op in ops {
            match op {
                NsOp::BindMeta(p, src) => {
                    model.insert(p, true);
                    let bp = Blueprint::parse(&src).expect("generated blueprints parse");
                    s.bind_meta_durable(MEMO_PATHS[p], bp, &mut fs, &mut clock, DIR)
                        .expect("journal write");
                }
                NsOp::BindObject(p) => {
                    model.insert(p, false);
                    let obj = assemble("o.o", ".text\n_o: ret\n").expect("assembles");
                    s.bind_object_durable(MEMO_PATHS[p], obj, &mut fs, &mut clock, DIR)
                        .expect("journal write");
                }
                NsOp::Unbind(p) => {
                    model.remove(&p);
                    s.unbind_durable(MEMO_PATHS[p], &mut fs, &mut clock, DIR)
                        .expect("journal write");
                }
                NsOp::Checkpoint => {
                    s.checkpoint(&mut fs, &mut clock, DIR).expect("checkpoint");
                }
                NsOp::Restore => {
                    s = Omos::restore(CostModel::hpux(), Transport::SysVMsg, &mut fs, &mut clock, DIR).0;
                }
            }
            for (p, path) in MEMO_PATHS.iter().enumerate() {
                let found = s.namespace.lookup_keyed(path);
                match &found {
                    Some((Entry::Meta(bp), key)) => prop_assert_eq!(*key, Some(bp.hash())),
                    Some((Entry::Object(_), key)) => prop_assert_eq!(*key, None),
                    None => {}
                }
                let kind = found.map(|(e, _)| matches!(e, Entry::Meta(_)));
                prop_assert_eq!(kind, model.get(&p).copied());
            }
        }
    }
}
