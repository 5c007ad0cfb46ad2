//! The image-key model: a bound image is keyed by exactly what its link
//! reads.
//!
//! For random objects and extern maps `E`, linking an object against
//! `E` and against `read_externs(obj, E)` gives byte-equal images and
//! equal work counters, so a key over the read set covers every extern
//! input of the link. Adding an extern that no relocation names moves
//! neither the library nor the program image key; moving a read extern
//! moves both.

use std::collections::HashMap;

use omos_analysis::manifest::{library_image_key, program_image_key};
use omos_link::{link, read_externs, LinkOptions};
use omos_obj::{ContentHash, ObjectFile, RelocKind, Relocation, Section, SectionKind, Symbol};
use proptest::prelude::*;

/// Names an object may define or reference, and so extern names a
/// relocation may read.
const NAMES: u8 = 6;

fn name(i: u8) -> String {
    format!("_s{i}")
}

/// One text section of `words` words with a global `_start` at 0. Each
/// `(name, role)` defines `_s{name}` globally (role 1) or locally
/// (role 2), declares it undefined (role 3), or leaves it out (role 0).
/// Each `(word, name, pcrel)` relocates a word to `_s{name}`.
fn object(words: u64, symbols: &[(u8, u8)], relocs: &[(u64, u8, u8)]) -> ObjectFile {
    let mut o = ObjectFile::new("m.o");
    let t = o.add_section(Section::with_bytes(
        ".text",
        SectionKind::Text,
        vec![0; words as usize * 4],
        4,
    ));
    o.symbols.insert_override(Symbol::defined("_start", t, 0));
    for &(n, role) in symbols {
        let offset = u64::from(n) % words * 4;
        match role {
            1 => o
                .symbols
                .insert_override(Symbol::defined(&name(n), t, offset)),
            2 => o
                .symbols
                .insert_override(Symbol::defined(&name(n), t, offset).local()),
            3 => o.symbols.insert_override(Symbol::undefined(&name(n))),
            _ => {}
        }
    }
    for &(word, n, pcrel) in relocs {
        let kind = if pcrel == 1 {
            RelocKind::Pcrel32
        } else {
            RelocKind::Abs32
        };
        o.relocate(Relocation::new(t, word % words * 4, kind, &name(n)));
    }
    o
}

/// Both image keys of `obj` against `externs`: as a library and as a
/// program, at fixed bases.
fn keys(obj: &ObjectFile, externs: &HashMap<String, u32>) -> (ContentHash, ContentHash) {
    let read = read_externs(obj, externs);
    (
        library_image_key(ContentHash(7), (0x0100_0000, 0x4100_0000), &read),
        program_image_key(ContentHash(7), (0x0001_0000, 0x3000_0000), &read),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn an_image_key_covers_exactly_what_its_link_reads(
        words in 1u64..8,
        symbols in proptest::collection::vec((0u8..NAMES, 0u8..4), 0..6),
        relocs in proptest::collection::vec((0u64..8, 0u8..NAMES, 0u8..2), 0..8),
        bound in proptest::collection::vec((0u8..NAMES, 0u32..0x1000), 0..6),
        unread in 1u32..0x1000,
        program in 0u8..2,
        strict in 0u8..4,
    ) {
        let obj = object(words, &symbols, &relocs);
        let externs: HashMap<String, u32> = bound
            .iter()
            .map(|&(n, a)| (name(n), 0x0200_0000 + a * 4))
            .collect();
        let read = read_externs(&obj, &externs);
        prop_assert!(read.windows(2).all(|w| w[0].0 < w[1].0), "sorted, no repeats");
        prop_assert!(read.iter().all(|(n, _)| obj.relocs.iter().any(|r| r.symbol == *n)));

        // The link: every extern against the read ones alone.
        let mut full = if program == 1 {
            LinkOptions::program("p")
        } else {
            LinkOptions::library("l", 0x0100_0000, 0x4100_0000)
        };
        full.externs = externs.clone();
        // Mostly leave unbound references to the dynamic linker, so
        // that most cases link; a quarter must bind every reference.
        full.allow_undefined = strict != 0;
        let narrow = LinkOptions {
            externs: read.iter().map(|&(n, a)| (n.to_string(), a)).collect(),
            ..full.clone()
        };
        let a = link(std::slice::from_ref(&obj), &full);
        let b = link(std::slice::from_ref(&obj), &narrow);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.image, &b.image);
                prop_assert_eq!(a.stats, b.stats);
                prop_assert_eq!(a.unresolved, b.unresolved);
            }
            (a, b) => prop_assert_eq!(a.err(), b.err()),
        }

        // An extern no relocation names moves neither key.
        let mut wider = externs.clone();
        wider.insert("_unread".to_string(), 0x0300_0000 + unread * 4);
        prop_assert_eq!(keys(&obj, &wider), keys(&obj, &externs));

        // Moving a read extern moves both.
        if let Some(&(n, addr)) = read.first() {
            let mut moved = externs.clone();
            moved.insert(n.to_string(), addr + 4);
            let (lib, prog) = keys(&obj, &moved);
            let (lib0, prog0) = keys(&obj, &externs);
            prop_assert_ne!(lib, lib0);
            prop_assert_ne!(prog, prog0);
        }
    }
}
