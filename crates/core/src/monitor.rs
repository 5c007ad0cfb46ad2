//! Monitoring-driven procedure reordering (§4.1, §6, and \[14\]).
//!
//! "OMOS can transparently modify program executables to provide
//! monitoring data, which can later be used to reorder the application to
//! improve performance. OMOS does this by using module operations to
//! extract the set of referenced routines and generate wrapper functions
//! around each, to log entry ... The wrapper functions are interposed
//! between each caller and the called routine."
//!
//! The interposition itself is the audit link policy
//! ([`omos_analysis::apply_link_policies`]):
//! [`crate::Omos::instantiate_monitored`] serves the bound blueprint
//! plus `(policy audit PATTERN)`, so every selected routine `f` has its
//! definition renamed to `f$real` and a generated stub `f` logs the
//! routine id via the `MONLOG` syscall before tail-jumping to `f$real`.
//! Running the monitored program yields the call order; [`derive_order`]
//! turns it into a layout permutation ("a preferred routine order")
//! that the workload generator / linker applies by permuting the
//! function fragments.

/// Derives the preferred routine order from monitor events: first-use
/// order, with never-called routines appended in their original order
/// (cold code sinks to the end, off the hot pages).
#[must_use]
pub fn derive_order(events: &[u32], id_names: &[String]) -> Vec<String> {
    let mut seen = vec![false; id_names.len()];
    let mut order = Vec::with_capacity(id_names.len());
    for &e in events {
        let i = e as usize;
        if i < id_names.len() && !seen[i] {
            seen[i] = true;
            order.push(id_names[i].clone());
        }
    }
    for (i, s) in seen.iter().enumerate() {
        if !s {
            order.push(id_names[i].clone());
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_order_first_use_then_cold() {
        let names: Vec<String> = ["_a", "_b", "_c", "_d"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let events = vec![2, 0, 2, 0, 2];
        let order = derive_order(&events, &names);
        assert_eq!(order, vec!["_c", "_a", "_b", "_d"]);
    }

    #[test]
    fn derive_order_ignores_bogus_ids() {
        let names: Vec<String> = vec!["_a".into()];
        assert_eq!(derive_order(&[7, 0], &names), vec!["_a".to_string()]);
    }
}
