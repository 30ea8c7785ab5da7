//! The correctness gate. Two oracles, neither of which runs the code
//! path it judges:
//!
//! * the **raw-graph residual** `‖H r − c q‖∞` with `H = I − (1−c)Ãᵀ`
//!   built from the edge list, which knows nothing of reordering, block
//!   elimination or GMRES;
//! * a **top-k check by linear scan** of a score vector, which knows
//!   nothing of the program's sort or of its JSON writer beyond Rust's
//!   shortest round-trip float formatting.

use bepi_sparse::Csr;

/// A residual above this fails the run (the solver's own tolerance is
/// `1e-9` on the preconditioned Schur system).
pub const RESIDUAL_LIMIT: f64 = 1e-6;

/// `‖H r − c e_seed‖∞`.
pub fn residual_inf(h: &Csr, scores: &[f64], seed: usize, c: f64) -> f64 {
    let hr = h.mul_vec(scores).expect("H and the score vector share n");
    hr.iter()
        .enumerate()
        .map(|(i, v)| (v - if i == seed { c } else { 0.0 }).abs())
        .fold(0.0, f64::max)
}

/// Does `a` rank before `b`? Descending score, ties by ascending id.
fn ranks_before(scores: &[f64], a: usize, b: usize) -> bool {
    scores[a] > scores[b] || (scores[a] == scores[b] && a < b)
}

/// Checks that `results` is exactly the top `k` of `scores`, in order,
/// with every score written as the shortest string that round-trips.
pub fn check_top_k(scores: &[f64], results: &[(usize, String)], k: usize) -> Result<(), String> {
    let want = k.min(scores.len());
    if results.len() != want {
        return Err(format!("{} results, expected {want}", results.len()));
    }
    for (node, written) in results {
        let score = *scores
            .get(*node)
            .ok_or_else(|| format!("node {node} out of range"))?;
        let expected = format!("{score:?}");
        if *written != expected {
            return Err(format!("node {node}: score {written}, expected {expected}"));
        }
    }
    for pair in results.windows(2) {
        if !ranks_before(scores, pair[0].0, pair[1].0) {
            return Err(format!(
                "nodes {} and {} out of order",
                pair[0].0, pair[1].0
            ));
        }
    }
    let Some(&(last, _)) = results.last() else {
        return Ok(());
    };
    for node in 0..scores.len() {
        if ranks_before(scores, node, last) && !results.iter().any(|(r, _)| *r == node) {
            return Err(format!("node {node} belongs in the top {k} and is absent"));
        }
    }
    Ok(())
}

/// [`check_top_k`] for an in-process answer (`RwrScores::top_k` ids).
pub fn check_top_k_ids(scores: &[f64], ids: &[usize], k: usize) -> Result<(), String> {
    let written: Vec<(usize, String)> = ids
        .iter()
        .map(|&i| (i, scores.get(i).map_or(String::new(), |s| format!("{s:?}"))))
        .collect();
    check_top_k(scores, &written, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_core::{rwr::build_h, BePi, BePiConfig};
    use bepi_graph::generators;

    fn written(scores: &[f64], ids: &[usize]) -> Vec<(usize, String)> {
        ids.iter()
            .map(|&i| (i, format!("{:?}", scores[i])))
            .collect()
    }

    #[test]
    fn top_k_check_accepts_the_truth_and_names_each_lie() {
        let scores = [0.1, 0.4, 0.4, 0.05, 0.2];
        assert!(check_top_k(&scores, &written(&scores, &[1, 2, 4]), 3).is_ok());
        // tie broken the wrong way
        assert!(check_top_k(&scores, &written(&scores, &[2, 1, 4]), 3).is_err());
        // a better node left out
        assert!(check_top_k(&scores, &written(&scores, &[1, 2, 0]), 3).is_err());
        // too few
        assert!(check_top_k(&scores, &written(&scores, &[1, 2]), 3).is_err());
        // a score string that is not the shortest round-trip form
        let mut lie = written(&scores, &[1, 2, 4]);
        lie[2].1 = "0.20".into();
        assert!(check_top_k(&scores, &lie, 3).is_err());
        // k beyond n returns everything
        assert!(check_top_k(&scores, &written(&scores, &[1, 2, 4, 0, 3]), 20).is_ok());
    }

    #[test]
    fn residual_accepts_a_real_answer_and_rejects_a_perturbed_one() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        let g = generators::inject_deadends(&g, 0.2, 1).unwrap();
        let index = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let h = build_h(&g, 0.05).unwrap();
        let answer = index.query_with_stats(7).unwrap();
        assert!(residual_inf(&h, &answer.scores, 7, 0.05) < RESIDUAL_LIMIT);
        assert!(check_top_k_ids(&answer.scores, &answer.top_k(20), 20).is_ok());
        let mut wrong = answer.scores.clone();
        wrong[100] += 1e-4;
        assert!(residual_inf(&h, &wrong, 7, 0.05) > RESIDUAL_LIMIT);
        assert!(residual_inf(&h, &answer.scores, 8, 0.05) > RESIDUAL_LIMIT);
    }
}
