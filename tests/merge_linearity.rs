//! A merge chain costs each operand once: every local is qualified a
//! single time, when it enters the chain, so a long chain's symbol
//! names grow with its operands, not with operands × steps.

use omos::bench::workload::{libc_objects, ls_object, LsVariant, WorkloadSizes};
use omos::module::Module;
use omos::obj::view::RenameTarget;
use omos::obj::{ObjectFile, SymbolBinding};

/// Bytes one local's name may gain: a `$u` qualifier and a counter of
/// up to four digits.
const PER_LOCAL_BYTES: usize = "$u".len() + 4;

/// The nine `core_ops` operands (libc's eight objects and `ls`), each
/// carrying its own locals.
fn sample_objects() -> Vec<ObjectFile> {
    let sizes = WorkloadSizes::small();
    let mut objs: Vec<ObjectFile> = libc_objects(&sizes).into_iter().map(|(_, o)| o).collect();
    objs.push(ls_object(LsVariant::Plain, &sizes));
    objs
}

/// Forty operands: the nine, repeated with their global names prefixed
/// apart.
fn forty_operands() -> Vec<ObjectFile> {
    let objects = sample_objects();
    (0..40)
        .map(|i| {
            Module::from_object(objects[i % objects.len()].clone())
                .rename("^_", &format!("_c{i}_"), RenameTarget::Both)
                .unwrap()
                .into_object()
                .unwrap()
        })
        .collect()
}

fn locals(obj: &ObjectFile) -> impl Iterator<Item = &str> {
    obj.symbols
        .iter()
        .filter(|s| s.binding == SymbolBinding::Local)
        .map(|s| s.name.as_str())
}

fn name_bytes(obj: &ObjectFile) -> usize {
    obj.symbols.iter().map(|s| s.name.len()).sum()
}

#[test]
fn a_forty_operand_chain_qualifies_each_local_once() {
    let operands = forty_operands();
    let operand_locals: usize = operands.iter().map(|o| locals(o).count()).sum();
    assert!(
        operand_locals >= 40,
        "every operand brings locals: {operand_locals}"
    );
    for o in &operands {
        assert!(
            locals(o).all(|n| !n.contains("$u")),
            "operands enter unqualified"
        );
    }
    let modules: Vec<Module> = operands.iter().cloned().map(Module::from_object).collect();
    let merged = Module::merge_all(&modules).unwrap().into_object().unwrap();

    assert_eq!(locals(&merged).count(), operand_locals);
    for name in locals(&merged) {
        assert_eq!(name.matches("$u").count(), 1, "{name}");
    }
    let operand_bytes: usize = operands.iter().map(name_bytes).sum();
    let bound = operand_bytes + PER_LOCAL_BYTES * operand_locals;
    assert!(
        name_bytes(&merged) <= bound,
        "{} B of names > {bound} B ({operand_bytes} B in the operands, {operand_locals} locals)",
        name_bytes(&merged)
    );
    let longest_operand = operands
        .iter()
        .flat_map(locals)
        .map(str::len)
        .max()
        .unwrap_or(0);
    let longest = locals(&merged).map(str::len).max().unwrap_or(0);
    assert!(longest <= longest_operand + PER_LOCAL_BYTES, "{longest} B");
}
