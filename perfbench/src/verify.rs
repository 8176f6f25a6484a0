//! Output checks: a serial replay of a server's round log through a fresh
//! core structure, the naive oracle on a sample of rounds, and a
//! comparison of final states.

use dyncon_api::{BatchDynamic, Connectivity, ExportEdges, Op, OpKind, ReadView};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_server::RoundRecord;
use dyncon_spanning::NaiveDynamicGraph;

/// Replay `rounds` in order through `core`, one `apply` per round, and
/// require every result to equal the recorded one byte for byte. After
/// each round, `after_round(round, core)` may check reads taken at that
/// round's state.
pub fn replay_rounds(
    core: &mut BatchDynamicConnectivity,
    rounds: &[RoundRecord],
    mut after_round: impl FnMut(u64, &BatchDynamicConnectivity) -> Result<(), String>,
) -> Result<(), String> {
    for rec in rounds {
        let got = core
            .apply(&rec.ops)
            .map_err(|e| format!("replay of round {}: {e}", rec.round))?;
        if got != rec.result {
            return Err(format!(
                "round {}: replay gives {} inserted, {} deleted, {} answers; the server reported {}, {}, {} ({} answers differ)",
                rec.round,
                got.inserted,
                got.deleted,
                got.answers.len(),
                rec.result.inserted,
                rec.result.deleted,
                rec.result.answers.len(),
                got.answers
                    .iter()
                    .zip(&rec.result.answers)
                    .filter(|(a, b)| a != b)
                    .count()
            ));
        }
        after_round(rec.round, core)?;
    }
    Ok(())
}

/// Apply `rounds` to the naive `oracle`. Every `sample_every`-th round
/// (and the first) runs whole and must reproduce its recorded result;
/// the others apply only their mutations, whose insert and delete counts
/// must still match.
pub fn oracle_rounds(
    oracle: &mut NaiveDynamicGraph,
    rounds: &[RoundRecord],
    sample_every: usize,
) -> Result<usize, String> {
    let mut checked = 0;
    for (i, rec) in rounds.iter().enumerate() {
        if i % sample_every.max(1) == 0 {
            let got = oracle
                .apply(&rec.ops)
                .map_err(|e| format!("oracle on round {}: {e}", rec.round))?;
            if got != rec.result {
                return Err(format!(
                    "round {}: the oracle disagrees with the server",
                    rec.round
                ));
            }
            checked += 1;
        } else {
            let mutations: Vec<Op> = rec
                .ops
                .iter()
                .copied()
                .filter(|op| op.kind() != OpKind::Query)
                .collect();
            let got = oracle
                .apply(&mutations)
                .map_err(|e| format!("oracle on round {}: {e}", rec.round))?;
            if (got.inserted, got.deleted) != (rec.result.inserted, rec.result.deleted) {
                return Err(format!(
                    "round {}: the oracle inserted/deleted {}/{}, the server {}/{}",
                    rec.round, got.inserted, got.deleted, rec.result.inserted, rec.result.deleted
                ));
            }
        }
    }
    Ok(checked)
}

/// The state a run must end in, taken from the oracle: the canonical
/// edge list, each vertex's component label (its smallest member) and
/// the component count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FinalState {
    /// Normalized, sorted edges.
    pub edges: Vec<(u32, u32)>,
    /// Smallest vertex of each vertex's component.
    pub labels: Vec<u32>,
    /// Number of components.
    pub components: usize,
}

impl FinalState {
    /// The state a graph over `n` vertices with these canonical `edges`
    /// is in.
    pub fn of_edges(n: usize, edges: Vec<(u32, u32)>) -> Self {
        let view = ReadView::build(n, 0, edges);
        Self {
            labels: view.component_labels().to_vec(),
            components: view.num_components(),
            edges: view.edges().to_vec(),
        }
    }

    /// The oracle's current state.
    pub fn of(oracle: &NaiveDynamicGraph) -> Self {
        Self::of_edges(oracle.num_vertices(), oracle.export_edges())
    }
}

/// Require `g` to hold exactly `want`: the same edge list, the same
/// component count, and every vertex connected to its expected label —
/// which, with equal counts, makes the partitions identical.
pub fn check_final<C: Connectivity + ExportEdges + ?Sized>(
    g: &C,
    want: &FinalState,
) -> Result<(), String> {
    let edges = g.export_edges();
    if edges != want.edges {
        return Err(format!(
            "final edge set differs ({} edges, expected {})",
            edges.len(),
            want.edges.len()
        ));
    }
    if g.num_components() != want.components {
        return Err(format!(
            "{} components, expected {}",
            g.num_components(),
            want.components
        ));
    }
    let pairs: Vec<(u32, u32)> = want
        .labels
        .iter()
        .enumerate()
        .map(|(v, &label)| (v as u32, label))
        .filter(|&(v, label)| v != label)
        .collect();
    if let Some(i) = g.batch_connected(&pairs).iter().position(|&same| !same) {
        return Err(format!(
            "vertex {} is not connected to its component label {}",
            pairs[i].0, pairs[i].1
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncon_api::BatchResult;

    fn recorded(ops_per_round: &[Vec<Op>]) -> (Vec<RoundRecord>, BatchDynamicConnectivity) {
        let mut g = BatchDynamicConnectivity::new(8);
        let rounds = ops_per_round
            .iter()
            .enumerate()
            .map(|(i, ops)| RoundRecord {
                round: i as u64,
                ops: ops.clone(),
                result: g.apply(ops).unwrap(),
            })
            .collect();
        (rounds, g)
    }

    fn script() -> Vec<Vec<Op>> {
        vec![
            vec![Op::Insert(0, 1), Op::Insert(1, 2), Op::Query(0, 2)],
            vec![
                Op::Insert(2, 0),
                Op::Delete(0, 1),
                Op::Query(0, 1),
                Op::Query(3, 4),
            ],
            vec![
                Op::Insert(4, 5),
                Op::Query(4, 5),
                Op::Delete(2, 0),
                Op::Query(0, 1),
            ],
        ]
    }

    #[test]
    fn an_honest_log_passes_every_check() {
        let (rounds, served) = recorded(&script());
        let mut seen = Vec::new();
        replay_rounds(&mut BatchDynamicConnectivity::new(8), &rounds, |r, _| {
            seen.push(r);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2]);
        let mut oracle = NaiveDynamicGraph::new(8);
        assert_eq!(oracle_rounds(&mut oracle, &rounds, 2), Ok(2));
        check_final(&served, &FinalState::of(&oracle)).unwrap();
    }

    #[test]
    fn one_flipped_answer_is_caught() {
        let (mut rounds, _) = recorded(&script());
        rounds[1].result.answers[0] ^= true;
        let err = replay_rounds(
            &mut BatchDynamicConnectivity::new(8),
            &rounds,
            |_, _| Ok(()),
        )
        .unwrap_err();
        assert!(
            err.contains("round 1") && err.contains("1 answers differ"),
            "{err}"
        );
        let mut oracle = NaiveDynamicGraph::new(8);
        assert!(oracle_rounds(&mut oracle, &rounds, 1).is_err());
        // A round the oracle only samples for its mutations still has its
        // counts checked.
        let (mut rounds, _) = recorded(&script());
        rounds[1].result = BatchResult {
            deleted: 0,
            ..rounds[1].result.clone()
        };
        let mut oracle = NaiveDynamicGraph::new(8);
        assert!(oracle_rounds(&mut oracle, &rounds, 2).is_err());
    }

    #[test]
    fn a_different_final_state_is_caught() {
        let (rounds, mut served) = recorded(&script());
        let mut oracle = NaiveDynamicGraph::new(8);
        oracle_rounds(&mut oracle, &rounds, 1).unwrap();
        let want = FinalState::of(&oracle);
        served.batch_insert(&[(6, 7)]);
        assert!(check_final(&served, &want).is_err());
    }
}
