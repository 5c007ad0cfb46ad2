//! Paired execution worlds: each workload wired up through the native
//! baseline AND through OMOS, over the same simulated filesystem.
//!
//! Correctness first: a [`Scenario`] run returns the program's console
//! output, and the harnesses assert that every scheme produces identical
//! bytes — a mis-bound symbol or a broken stub shows up as divergent
//! output or a fault, not a silently wrong time.

use std::collections::HashMap;

use omos_core::{run_under_omos, Omos};
use omos_isa::StopReason;
use omos_link::{build_dyn_executable, build_dyn_library, DynExecutable, DynLibrary};
use omos_module::Module;
use omos_obj::ObjectFile;
use omos_os::ipc::Transport;
use omos_os::{exec_native, CostModel, ImageFrames, InMemFs, NativeWorld, SimClock, Times};

use crate::workload::{
    codegen_workload, libc_objects, ls_object, populate_fs, LsVariant, WorkloadSizes, CODEGEN_LIBS,
};

/// Per-program, per-scheme measured times.
#[derive(Debug, Clone, Copy)]
pub struct SchemeTimes {
    /// Native shared libraries (the baseline).
    pub native: Times,
    /// OMOS via the bootstrap loader.
    pub bootstrap: Times,
    /// OMOS via integrated exec.
    pub integrated: Times,
}

impl SchemeTimes {
    /// Elapsed-time ratio of bootstrap vs native (Table 1's "Ratio").
    #[must_use]
    pub fn bootstrap_ratio(&self) -> f64 {
        self.bootstrap.elapsed_ns as f64 / self.native.elapsed_ns as f64
    }

    /// Elapsed-time ratio of integrated vs native.
    #[must_use]
    pub fn integrated_ratio(&self) -> f64 {
        self.integrated.elapsed_ns as f64 / self.native.elapsed_ns as f64
    }
}

/// Library placement bases for the native world (chosen once, like a
/// system's registered shared libraries).
const NATIVE_BASES: [(u32, u32); 6] = [
    (0x0200_0000, 0x4400_0000),
    (0x0240_0000, 0x4440_0000),
    (0x0280_0000, 0x4480_0000),
    (0x02c0_0000, 0x44c0_0000),
    (0x0300_0000, 0x4500_0000),
    (0x0340_0000, 0x4540_0000),
];

/// A fully wired pair of worlds for one cost profile.
#[derive(Debug)]
pub struct Scenario {
    /// Workload sizing.
    pub sizes: WorkloadSizes,
    /// Machine cost profile.
    pub cost: CostModel,
    /// The shared (warm) filesystem.
    pub fs: InMemFs,
    /// The persistent OMOS server.
    pub server: Omos,
    native: NativeWorld,
    exes: HashMap<&'static str, (DynExecutable, ImageFrames)>,
    /// Instruction fuel per run.
    pub fuel: u64,
}

/// Program names the scenario knows.
pub const PROGRAMS: [&str; 3] = ["ls", "ls-laF", "codegen"];

impl Scenario {
    /// Builds both worlds for the given profile and transport.
    ///
    /// # Panics
    ///
    /// Panics if the generated workloads fail to build — that is a bug in
    /// the generators, not a runtime condition.
    #[must_use]
    pub fn build(sizes: WorkloadSizes, cost: CostModel, transport: Transport) -> Scenario {
        let mut fs = InMemFs::new();
        populate_fs(&mut fs, &sizes);

        let libc = libc_objects(&sizes);
        let cg = codegen_workload(&sizes);

        // --- Native world. -------------------------------------------------
        let libc_objs: Vec<ObjectFile> = libc.iter().map(|(_, o)| o.clone()).collect();
        let (t, d) = NATIVE_BASES[0];
        let native_libc = build_dyn_library(&libc_objs, "libc", t, d, &[]).expect("libc builds");
        let mut native_libs = vec![native_libc];
        for (i, (name, obj)) in cg.lib_objects.iter().enumerate() {
            let (t, d) = NATIVE_BASES[i + 1];
            let short = name.rsplit('/').next().expect("non-empty path");
            let deps: Vec<&DynLibrary> = native_libs.iter().collect();
            let lib = build_dyn_library(std::slice::from_ref(obj), short, t, d, &deps)
                .expect("codegen library builds");
            native_libs.push(lib);
        }

        let mut exes = HashMap::new();
        {
            let libs: Vec<&DynLibrary> = native_libs.iter().collect();
            let ls = build_dyn_executable(&[ls_object(LsVariant::Plain, &sizes)], "ls", &[libs[0]])
                .expect("ls links");
            let laf = build_dyn_executable(
                &[ls_object(LsVariant::LongAll, &sizes)],
                "ls-laF",
                &[libs[0]],
            )
            .expect("ls -laF links");
            // codegen client: merge the 33 files, synthesize initializers.
            let client_modules: Vec<Module> = cg
                .client_objects
                .iter()
                .map(|(_, o)| Module::from_object(o.clone()))
                .collect();
            let client = Module::merge_all(&client_modules)
                .expect("codegen client merges")
                .initializers()
                .expect("initializers generate")
                .into_object()
                .expect("codegen client materializes");
            let cg_exe = build_dyn_executable(&[client], "codegen", &libs).expect("codegen links");
            for (name, exe) in [("ls", ls), ("ls-laF", laf), ("codegen", cg_exe)] {
                let frames = ImageFrames::from_image(&exe.image);
                exes.insert(name, (exe, frames));
            }
        }
        let native = NativeWorld::new(native_libs);

        // --- OMOS world. -----------------------------------------------------
        let server = Omos::new(cost, transport);
        for (path, obj) in &libc {
            server.namespace.bind_object(path, obj.clone());
        }
        server
            .namespace
            .bind_object("/obj/ls.o", ls_object(LsVariant::Plain, &sizes));
        server
            .namespace
            .bind_object("/obj/ls-laF.o", ls_object(LsVariant::LongAll, &sizes));
        for (path, obj) in &cg.client_objects {
            server.namespace.bind_object(path, obj.clone());
        }
        for (path, obj) in &cg.lib_objects {
            server
                .namespace
                .bind_object(&format!("{path}.o"), obj.clone());
        }
        let libc_merge: String = crate::workload::LIBC_MODULES
            .iter()
            .map(|m| format!(" /libc/{m}"))
            .collect();
        server
            .namespace
            .bind_blueprint(
                "/lib/libc",
                &format!("(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge{libc_merge})"),
            )
            .expect("libc blueprint");
        for (i, lib) in CODEGEN_LIBS.iter().enumerate() {
            server
                .namespace
                .bind_blueprint(
                    &format!("/lib/{lib}"),
                    &format!(
                        "(constraint-list \"T\" {:#x} \"D\" {:#x})\n(merge /lib/{lib}.o)",
                        0x0110_0000 + (i as u64 + 1) * 0x40_0000,
                        0x4110_0000 + (i as u64 + 1) * 0x40_0000,
                    ),
                )
                .expect("lib blueprint");
        }
        server
            .namespace
            .bind_blueprint("/bin/ls", "(merge /obj/ls.o /lib/libc)")
            .expect("ls blueprint");
        server
            .namespace
            .bind_blueprint("/bin/ls-laF", "(merge /obj/ls-laF.o /lib/libc)")
            .expect("ls-laF blueprint");
        let cg_files: String = cg
            .client_objects
            .iter()
            .map(|(p, _)| format!(" {p}"))
            .collect();
        let cg_libs: String = CODEGEN_LIBS.iter().map(|l| format!(" /lib/{l}")).collect();
        server
            .namespace
            .bind_blueprint(
                "/bin/codegen",
                &format!("(merge (initializers (merge{cg_files})) /lib/libc{cg_libs})"),
            )
            .expect("codegen blueprint");

        Scenario {
            sizes,
            cost,
            fs,
            server,
            native,
            exes,
            fuel: 50_000_000,
        }
    }

    /// Runs `program` under the native scheme once; returns the times for
    /// that invocation and the console output.
    pub fn run_native(&mut self, program: &str) -> Result<(Times, Vec<u8>), String> {
        let (exe, frames) = self
            .exes
            .get(program)
            .ok_or_else(|| format!("unknown program {program}"))?;
        let mut clock = SimClock::new();
        // The measuring loop's own fork of each iteration.
        clock.charge_system(self.cost.fork_ns);
        let (mut proc, mut binder) =
            exec_native(&self.native, exe, frames, &mut clock, &self.cost)?;
        let out = omos_os::run_process(
            &mut proc,
            &mut clock,
            &self.cost,
            &mut self.fs,
            &mut binder,
            self.fuel,
        );
        match out.stop {
            StopReason::Exited(0) => Ok((clock.times(), out.console)),
            other => Err(format!("native {program} did not exit cleanly: {other:?}")),
        }
    }

    /// Runs `program` under OMOS once (bootstrap or integrated exec).
    pub fn run_omos(
        &mut self,
        program: &str,
        integrated: bool,
    ) -> Result<(Times, Vec<u8>), String> {
        let mut clock = SimClock::new();
        // The measuring loop's own fork of each iteration.
        clock.charge_system(self.cost.fork_ns);
        let out = run_under_omos(
            &self.server,
            &format!("/bin/{program}"),
            integrated,
            &mut clock,
            &self.cost,
            &mut self.fs,
            self.fuel,
        )
        .map_err(|e| e.to_string())?;
        match out.stop {
            StopReason::Exited(0) => Ok((clock.times(), out.console)),
            other => Err(format!("omos {program} did not exit cleanly: {other:?}")),
        }
    }

    /// Warms every cache (file cache, OMOS image cache, native frames)
    /// by running each program once under each scheme, asserting that
    /// all three produce identical output.
    pub fn warm_up(&mut self) -> Result<(), String> {
        for p in PROGRAMS {
            let (_, native_out) = self.run_native(p)?;
            let (_, boot_out) = self.run_omos(p, false)?;
            let (_, integ_out) = self.run_omos(p, true)?;
            if native_out != boot_out || boot_out != integ_out {
                return Err(format!(
                    "{p}: schemes disagree (native {} bytes, bootstrap {} bytes, integrated {} bytes)",
                    native_out.len(),
                    boot_out.len(),
                    integ_out.len()
                ));
            }
        }
        Ok(())
    }

    /// Measures one warm invocation of `program` under all three schemes.
    pub fn measure(&mut self, program: &str) -> Result<SchemeTimes, String> {
        let (native, _) = self.run_native(program)?;
        let (bootstrap, _) = self.run_omos(program, false)?;
        let (integrated, _) = self.run_omos(program, true)?;
        Ok(SchemeTimes {
            native,
            bootstrap,
            integrated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::build(
            WorkloadSizes::small(),
            CostModel::hpux(),
            Transport::SysVMsg,
        )
    }

    #[test]
    fn all_schemes_agree_on_output() {
        let mut s = scenario();
        s.warm_up()
            .expect("every program runs identically under all schemes");
    }

    #[test]
    fn ls_output_lists_directory() {
        let mut s = scenario();
        let (_, out) = s.run_native("ls").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "only-file\n");
    }

    #[test]
    fn ls_laf_lists_every_entry_with_size() {
        let mut s = scenario();
        let (_, out) = s.run_omos("ls-laF", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), s.sizes.ls_dir_entries);
        assert!(lines[0].starts_with("file00 100"), "got {:?}", lines[0]);
        assert!(lines[2].starts_with("file02 "), "got {:?}", lines[2]);
    }

    #[test]
    fn codegen_runs_and_reports() {
        let mut s = scenario();
        let (_, out) = s.run_omos("codegen", true).unwrap();
        assert_eq!(out, b"done\n");
    }

    #[test]
    fn warm_measurements_are_deterministic() {
        let mut s = scenario();
        s.warm_up().unwrap();
        let a = s.measure("ls").unwrap();
        let b = s.measure("ls").unwrap();
        assert_eq!(a.native.elapsed_ns, b.native.elapsed_ns);
        assert_eq!(a.bootstrap.elapsed_ns, b.bootstrap.elapsed_ns);
        assert_eq!(a.integrated.elapsed_ns, b.integrated.elapsed_ns);
    }

    #[test]
    fn omos_integrated_beats_bootstrap() {
        let mut s = scenario();
        s.warm_up().unwrap();
        let t = s.measure("ls").unwrap();
        assert!(t.integrated.elapsed_ns < t.bootstrap.elapsed_ns);
    }

    #[test]
    fn codegen_favors_omos_on_hpux() {
        // The Table 1 codegen row: many relocations redone per native
        // exec ⇒ OMOS wins. Needs the full-size workload — the effect is
        // proportional to symbol/relocation counts.
        let sizes = WorkloadSizes {
            codegen_iters: 5, // keep VM time down; startup is the point
            ..WorkloadSizes::default()
        };
        let mut s = Scenario::build(sizes, CostModel::hpux(), Transport::SysVMsg);
        s.warm_up().unwrap();
        let t = s.measure("codegen").unwrap();
        assert!(
            t.bootstrap_ratio() < 1.0,
            "codegen bootstrap ratio {:.3} should beat native",
            t.bootstrap_ratio()
        );
    }
}
