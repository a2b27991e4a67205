//! The correctness audit every run ends with. A promise the system
//! acked must still be kept once the run has quiesced: an acked cart
//! add must be in the reconciled stores, and an acked append must be in
//! the leader's log and must have reached the consumer group.

use std::collections::{BTreeMap, HashSet};

use quicksand_core::uniquifier::Uniquifier;

/// A materialized cart: item → quantity.
pub type Cart = BTreeMap<u64, u32>;

/// Acked `(key, item)` adds missing from the reconciled carts.
pub fn missing_adds(acked: &[(u64, u64)], reconciled: &BTreeMap<u64, Cart>) -> Vec<(u64, u64)> {
    acked
        .iter()
        .copied()
        .filter(|(key, item)| !reconciled.get(key).is_some_and(|c| c.contains_key(item)))
        .collect()
}

/// Acked appends missing from `held`.
pub fn missing_appends(acked: &[Uniquifier], held: &HashSet<Uniquifier>) -> Vec<Uniquifier> {
    acked.iter().copied().filter(|id| !held.contains(id)).collect()
}

/// Record one audit check: `what` must be zero.
pub fn check(failures: &mut Vec<String>, what: &str, found: usize, example: impl std::fmt::Debug) {
    if found > 0 {
        failures.push(format!("{found} {what} (e.g. {example:?})"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_planted_missing_acked_add_is_rejected() {
        let acked = vec![(1, 10), (1, 11), (2, 20)];
        let mut carts = BTreeMap::new();
        carts.insert(1, Cart::from([(10, 1), (11, 1)]));
        carts.insert(2, Cart::from([(20, 1)]));
        assert!(missing_adds(&acked, &carts).is_empty());
        // Plant the loss: item 11 never made it into key 1's cart.
        carts.insert(1, Cart::from([(10, 1)]));
        assert_eq!(missing_adds(&acked, &carts), vec![(1, 11)]);
        // A key the stores never saw loses every add acked on it.
        carts.remove(&2);
        assert_eq!(missing_adds(&acked, &carts), vec![(1, 11), (2, 20)]);
    }

    #[test]
    fn a_planted_missing_append_is_rejected() {
        let ids: Vec<Uniquifier> = (1..=3u128).map(Uniquifier::from_raw).collect();
        let mut held: HashSet<Uniquifier> = ids.iter().copied().collect();
        assert!(missing_appends(&ids, &held).is_empty());
        held.remove(&ids[1]);
        assert_eq!(missing_appends(&ids, &held), vec![ids[1]]);
    }

    #[test]
    fn check_records_only_nonzero_findings() {
        let mut failures = Vec::new();
        check(&mut failures, "lost acked adds", 0, ());
        assert!(failures.is_empty());
        check(&mut failures, "open guesses", 2, "x");
        assert_eq!(failures, vec!["2 open guesses (e.g. \"x\")".to_string()]);
    }
}
