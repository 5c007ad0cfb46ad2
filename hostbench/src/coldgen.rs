//! Seeded generator for the `cold_build` workload: distinct
//! codegen-shaped programs that each merge tens of object fragments and
//! pull from a pool of constraint-placed libraries.
//!
//! Library 0 is in every program (it plays libc: every fragment calls
//! into it); each program adds a few more pool libraries, always in
//! pool order. Fragments come from a shared pool, and each program has
//! its own main object, so every program's blueprint, and with it its
//! reply key and program image, is distinct.

use std::fmt::Write as _;

use omos_core::Omos;
use omos_isa::assemble;
use omos_obj::ObjectFile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pool libraries.
const LIBS: usize = 24;
/// Exported functions per library.
const LIB_FNS: usize = 16;
/// Fragments in the shared pool.
const FRAGS: usize = 320;
/// Functions per fragment.
const FNS_PER_FRAG: usize = 4;
/// Fragments per program (inclusive range).
const FRAGS_PER_PROGRAM: (usize, usize) = (16, 40);
/// Pool libraries per program besides library 0 (inclusive range).
const EXTRA_LIBS: (usize, usize) = (1, 4);

/// Namespace path of library `i`'s object.
pub fn lib_obj_path(i: usize) -> String {
    format!("/cb/obj/l{i}.o")
}

/// Namespace path of library `i`'s blueprint.
pub fn lib_path(i: usize) -> String {
    format!("/cb/lib/l{i}")
}

fn frag_path(f: usize) -> String {
    format!("/cb/frag/f{f}.o")
}

fn main_path(tag: &str, j: usize) -> String {
    format!("/cb/obj/{tag}{j}.o")
}

/// Namespace path of program `j` of the set tagged `tag`.
pub fn program_path(tag: &str, j: usize) -> String {
    format!("/cb/{tag}{j}")
}

/// One generated program: its fragments and libraries.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    pub frags: Vec<usize>,
    pub libs: Vec<usize>,
}

/// The generated universe.
#[derive(Debug)]
pub struct ColdUniverse {
    pub lib_objects: Vec<ObjectFile>,
    pub frag_objects: Vec<ObjectFile>,
    rng: StdRng,
}

fn library_object(i: usize) -> ObjectFile {
    let mut s = String::from(".text\n");
    for k in 0..LIB_FNS {
        let _ = write!(
            s,
            "    .global _cbl{i}_fn{k}\n_cbl{i}_fn{k}:\n    li r9, {}\n    add r1, r1, r9\n    mul r9, r9, r9\n    xor r1, r1, r9\n    ret\n",
            (i * 7 + k * 3) % 97
        );
    }
    let _ = write!(
        s,
        "    .data\n    .global _cbl{i}_state\n_cbl{i}_state: .word 0, 0\n"
    );
    assemble(&lib_obj_path(i), &s).expect("generated library assembles")
}

fn fragment_object(f: usize, rng: &mut StdRng) -> ObjectFile {
    let mut s = String::from(".text\n");
    for k in 0..FNS_PER_FRAG {
        let _ = write!(
            s,
            "    .global _cbf{f}_{k}\n_cbf{f}_{k}:\n    addi r14, r14, -4\n    st r15, [r14]\n    li r9, {}\n    add r1, r1, r9\n    shl r10, r9, r0\n    or r1, r1, r10\n",
            (f * 31 + k) % 113
        );
        if k + 1 < FNS_PER_FRAG {
            let _ = writeln!(s, "    call _cbf{f}_{}", k + 1);
        }
        let _ = writeln!(s, "    call _cbl0_fn{}", rng.gen_range(0..LIB_FNS));
        s.push_str("    ld r15, [r14]\n    addi r14, r14, 4\n    ret\n");
    }
    assemble(&frag_path(f), &s).expect("generated fragment assembles")
}

fn main_object(tag: &str, j: usize, spec: &ProgramSpec) -> ObjectFile {
    let mut s = format!(
        ".text\n    .global _start\n_start:\n    li r1, {}\n",
        j % 4093
    );
    for f in &spec.frags {
        let _ = writeln!(s, "    call _cbf{f}_0");
    }
    for (n, l) in spec.libs.iter().enumerate() {
        let _ = writeln!(s, "    call _cbl{l}_fn{}", (j + n) % LIB_FNS);
    }
    s.push_str("    sys 0\n");
    assemble(&main_path(tag, j), &s).expect("generated main object assembles")
}

impl ColdUniverse {
    /// Generates the library and fragment pools for `seed`.
    pub fn generate(seed: u64) -> ColdUniverse {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x636f_6c64_5f62_6c64);
        let lib_objects = (0..LIBS).map(library_object).collect();
        let frag_objects = (0..FRAGS).map(|f| fragment_object(f, &mut rng)).collect();
        ColdUniverse {
            lib_objects,
            frag_objects,
            rng,
        }
    }

    /// Binds the library and fragment pools into `server`.
    pub fn bind_pools(&self, server: &Omos) {
        for (i, obj) in self.lib_objects.iter().enumerate() {
            server.namespace.bind_object(&lib_obj_path(i), obj.clone());
            server
                .namespace
                .bind_blueprint(&lib_path(i), &lib_blueprint(i))
                .expect("library blueprint parses");
        }
        for (f, obj) in self.frag_objects.iter().enumerate() {
            server.namespace.bind_object(&frag_path(f), obj.clone());
        }
    }

    /// Draws the next program's shape.
    pub fn next_spec(&mut self) -> ProgramSpec {
        let rng = &mut self.rng;
        let n = rng.gen_range(FRAGS_PER_PROGRAM.0..FRAGS_PER_PROGRAM.1 + 1);
        let mut frags: Vec<usize> = Vec::with_capacity(n);
        while frags.len() < n {
            let f = rng.gen_range(0..FRAGS);
            if !frags.contains(&f) {
                frags.push(f);
            }
        }
        let extra = rng.gen_range(EXTRA_LIBS.0..EXTRA_LIBS.1 + 1);
        let mut libs = vec![0usize];
        while libs.len() < extra + 1 {
            let l = rng.gen_range(1..LIBS);
            if !libs.contains(&l) {
                libs.push(l);
            }
        }
        libs.sort_unstable();
        ProgramSpec { frags, libs }
    }
}

/// Library `i`'s blueprint: one object at a fixed, constraint-chosen
/// address (1 MiB apart, so every image is position-fixed).
pub fn lib_blueprint(i: usize) -> String {
    format!(
        "(constraint-list \"T\" {:#x} \"D\" {:#x})\n(merge {})",
        0x0300_0000u64 + (i as u64) * 0x0010_0000,
        0x4300_0000u64 + (i as u64) * 0x0010_0000,
        lib_obj_path(i)
    )
}

/// Binds program `j` of set `tag` (its main object and blueprint) into
/// `server`.
pub fn bind_program(server: &Omos, tag: &str, j: usize, spec: &ProgramSpec) {
    server
        .namespace
        .bind_object(&main_path(tag, j), main_object(tag, j, spec));
    server
        .namespace
        .bind_blueprint(&program_path(tag, j), &program_blueprint(tag, j, spec))
        .expect("program blueprint parses");
}

fn program_blueprint(tag: &str, j: usize, spec: &ProgramSpec) -> String {
    let mut bp = format!("(merge {}", main_path(tag, j));
    for &f in &spec.frags {
        let _ = write!(bp, " {}", frag_path(f));
    }
    for &l in &spec.libs {
        let _ = write!(bp, " {}", lib_path(l));
    }
    bp.push(')');
    bp
}

/// Binds exactly what program `j` needs into a fresh `server`: the
/// reference a sampled reply is checked against.
pub fn bind_isolated(
    server: &Omos,
    universe: &ColdUniverse,
    tag: &str,
    j: usize,
    spec: &ProgramSpec,
) {
    for &l in &spec.libs {
        server
            .namespace
            .bind_object(&lib_obj_path(l), universe.lib_objects[l].clone());
        server
            .namespace
            .bind_blueprint(&lib_path(l), &lib_blueprint(l))
            .expect("library blueprint parses");
    }
    for &f in &spec.frags {
        server
            .namespace
            .bind_object(&frag_path(f), universe.frag_objects[f].clone());
    }
    bind_program(server, tag, j, spec);
}
