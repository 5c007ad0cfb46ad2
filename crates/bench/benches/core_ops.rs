//! Criterion micro-benchmarks of the implementation's hot paths: symbol
//! views, module merging, encodings, linking, placement, and warm
//! server instantiation. These measure *host* wall-clock time of
//! this Rust implementation (the simulated-time tables come from the
//! `table1`/`reorder`/`memuse` binaries).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use omos_bench::workload::{libc_objects, ls_object, LsVariant, WorkloadSizes};
use omos_constraint::{PlacementRequest, PlacementSolver, RegionClass, SegmentRequest};
use omos_module::Module;
use omos_obj::encode::{read, write, Format};
use omos_obj::view::{RenameTarget, ViewKind, ViewOp};
use omos_obj::{ObjectFile, Regex, View};

fn sample_objects() -> Vec<ObjectFile> {
    let sizes = WorkloadSizes::small();
    let mut objs: Vec<ObjectFile> = libc_objects(&sizes).into_iter().map(|(_, o)| o).collect();
    objs.push(ls_object(LsVariant::Plain, &sizes));
    objs
}

fn bench_regex(c: &mut Criterion) {
    c.bench_function("regex/compile", |b| {
        b.iter(|| Regex::new(black_box("^_(malloc|free|realloc)[0-9]*$")).unwrap())
    });
    let re = Regex::new("^_libc_[a-z]+_[0-9]+$").unwrap();
    c.bench_function("regex/match", |b| {
        b.iter(|| black_box(re.is_match(black_box("_libc_string_17"))))
    });
}

fn bench_views(c: &mut Criterion) {
    let obj = sample_objects().swap_remove(2);
    let view = View::from_object(obj);
    c.bench_function("view/derive", |b| {
        b.iter(|| {
            black_box(view.derive(ViewOp {
                kind: ViewKind::Hide,
                pattern: Regex::new("^_strlen$").unwrap(),
                replacement: String::new(),
            }))
        })
    });
    let derived = view
        .derive(ViewOp {
            kind: ViewKind::Rename(RenameTarget::Both),
            pattern: Regex::new("^_str").unwrap(),
            replacement: "_STR".into(),
        })
        .derive(ViewOp {
            kind: ViewKind::Hide,
            pattern: Regex::new("^_memcpy$").unwrap(),
            replacement: String::new(),
        });
    c.bench_function("view/materialize", |b| {
        b.iter(|| derived.materialize().unwrap())
    });
}

fn bench_merge(c: &mut Criterion) {
    let objects = sample_objects();
    let modules: Vec<Module> = objects.iter().cloned().map(Module::from_object).collect();
    c.bench_function("module/merge_all_9", |b| {
        b.iter(|| Module::merge_all(black_box(&modules)).unwrap())
    });
    // Forty operands — the nine, repeated with their names prefixed
    // apart — so the per-step cost, not the chain length, shows.
    let many: Vec<Module> = (0..40)
        .map(|i| {
            let copy = Module::from_object(objects[i % objects.len()].clone())
                .rename("^_", &format!("_c{i}_"), RenameTarget::Both)
                .unwrap();
            Module::from_object(copy.into_object().unwrap())
        })
        .collect();
    c.bench_function("module/merge_all_40", |b| {
        b.iter(|| Module::merge_all(black_box(&many)).unwrap())
    });
}

fn bench_encodings(c: &mut Criterion) {
    let obj = sample_objects().swap_remove(1);
    for fmt in [Format::Aout, Format::Som] {
        c.bench_function(&format!("encode/{}", fmt.name()), |b| {
            b.iter(|| write(fmt, black_box(&obj)))
        });
        let bytes = write(fmt, &obj);
        c.bench_function(&format!("decode/{}", fmt.name()), |b| {
            b.iter(|| read(fmt, black_box(&bytes)).unwrap())
        });
    }
}

fn bench_link(c: &mut Criterion) {
    let objs = sample_objects();
    let opts = omos_link::LinkOptions::program("bench");
    c.bench_function("link/ls_plus_libc", |b| {
        b.iter(|| omos_link::link(black_box(&objs), &opts).unwrap())
    });
}

fn bench_solver(c: &mut Criterion) {
    c.bench_function("solver/place_100_fresh", |b| {
        b.iter_batched(
            PlacementSolver::new,
            |mut s| {
                for i in 0..100u64 {
                    s.place(
                        &PlacementRequest {
                            name: format!("lib{i}"),
                            key: i,
                            segments: vec![SegmentRequest {
                                class: RegionClass::Text,
                                size: 0x8000,
                                align: 4096,
                                preferred: None,
                            }],
                        },
                        &[],
                    )
                    .unwrap();
                }
                s
            },
            BatchSize::SmallInput,
        )
    });
    let mut warm = PlacementSolver::new();
    let req = PlacementRequest {
        name: "libc".into(),
        key: 7,
        segments: vec![SegmentRequest {
            class: RegionClass::Text,
            size: 0x8000,
            align: 4096,
            preferred: Some(0x0100_0000),
        }],
    };
    warm.place(&req, &[]).unwrap();
    c.bench_function("solver/reuse_hit", |b| {
        b.iter(|| warm.place(black_box(&req), &[]).unwrap())
    });
}

fn bench_server(c: &mut Criterion) {
    use omos_os::ipc::Transport;
    use omos_os::{CostModel, Process, SimClock};
    let sizes = WorkloadSizes::small();
    let mut scenario = omos_bench::Scenario::build(sizes, CostModel::hpux(), Transport::SysVMsg);
    scenario.warm_up().unwrap();
    c.bench_function("server/warm_instantiate_ls", |b| {
        b.iter(|| scenario.server.instantiate(black_box("/bin/ls")).unwrap())
    });
    // A warm exec's mapping layer alone: spawn, map every image of the
    // cached codegen reply, and drop the process.
    let codegen = scenario.server.instantiate("/bin/codegen").unwrap();
    c.bench_function("os/exec_map_codegen", |b| {
        b.iter(|| {
            let mut clock = SimClock::new();
            let mut proc =
                Process::spawn(&codegen.program.frames, &mut clock, &scenario.cost).unwrap();
            for lib in &codegen.libraries {
                proc.map_more(&lib.frames, &mut clock, &scenario.cost)
                    .unwrap();
            }
            drop(black_box(proc));
        })
    });
    let mut g = c.benchmark_group("endtoend");
    g.sample_size(20);
    g.bench_function("omos_exec_and_run_ls", |b| {
        b.iter(|| scenario.run_omos(black_box("ls"), true).unwrap())
    });
    g.bench_function("native_exec_and_run_ls", |b| {
        b.iter(|| scenario.run_native(black_box("ls")).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_regex,
    bench_views,
    bench_merge,
    bench_encodings,
    bench_link,
    bench_solver,
    bench_server
);
criterion_main!(benches);
