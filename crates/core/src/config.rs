//! Config generation (§3 of the paper).
//!
//! A *config* is a set of attributes; the debugger runs one top-k string
//! similarity join per config over the concatenation of its attributes.
//! Enumerating all `2^|S|` subsets is infeasible, so the generator:
//!
//! 1. selects **promising attributes** `T` — drops numerics, and drops
//!    categorical/boolean attributes whose value domains differ between
//!    the two tables (§3.2);
//! 2. builds a **config tree** top-down from `T`: each level removes one
//!    attribute from the previously expanded node, producing a diverse set
//!    of `|T|·(|T|+1)/2` configs of sizes `|T| … 1`;
//! 3. chooses which node to expand using the **e-score** (Definition 3.1,
//!    the harmonic mean of non-missing and uniqueness ratios) — unless
//!    `FindLongAttr` (Theorem 3.5) detects an attribute long enough to
//!    "overwhelm" the subtree, in which case that attribute is removed
//!    first.

use mc_table::stats::TableStats;
use mc_table::{AttrId, AttrType, Table};

/// A set of attributes, as a bitmask over positions in the promising set
/// `T` (at most 32 promising attributes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Config {
    mask: u32,
}

impl Config {
    /// Config over positions (indexes into the promising attribute list).
    pub fn from_positions(positions: impl IntoIterator<Item = usize>) -> Self {
        let mut mask = 0u32;
        for p in positions {
            assert!(p < 32, "config positions limited to 32");
            mask |= 1 << p;
        }
        Config { mask }
    }

    /// Full config over the first `n` positions.
    pub fn full(n: usize) -> Self {
        assert!(n <= 32);
        Config {
            mask: if n == 32 { u32::MAX } else { (1u32 << n) - 1 },
        }
    }

    /// The positions in this config, ascending.
    pub fn positions(self) -> Vec<usize> {
        (0..32).filter(|p| self.mask & (1 << p) != 0).collect()
    }

    /// Number of attributes.
    pub fn len(self) -> usize {
        self.mask.count_ones() as usize
    }

    /// True if the config is empty.
    pub fn is_empty(self) -> bool {
        self.mask == 0
    }

    /// True if position `p` is in the config.
    pub fn contains(self, p: usize) -> bool {
        self.mask & (1 << p) != 0
    }

    /// This config without position `p`.
    pub fn without(self, p: usize) -> Config {
        Config {
            mask: self.mask & !(1 << p),
        }
    }

    /// True if `self ⊆ other`.
    pub fn is_subset_of(self, other: Config) -> bool {
        self.mask & !other.mask == 0
    }

    /// The raw bitmask (stable identifier).
    pub fn mask(self) -> u32 {
        self.mask
    }

    /// Config from a raw bitmask previously obtained from
    /// [`Config::mask`] (store artifacts round-trip configs this way).
    pub fn from_mask(mask: u32) -> Config {
        Config { mask }
    }
}

/// The promising attribute set `T` with the statistics config generation
/// needs.
#[derive(Debug, Clone)]
pub struct PromisingAttrs {
    /// Selected attributes, in schema order. Position `i` in every
    /// [`Config`] refers to `attrs[i]`.
    pub attrs: Vec<AttrId>,
    /// e-score per position (Definition 3.1).
    pub e_scores: Vec<f64>,
    /// Average token length per position in table A (`AL_f(A)`).
    pub avg_tokens_a: Vec<f64>,
    /// Average token length per position in table B.
    pub avg_tokens_b: Vec<f64>,
}

impl PromisingAttrs {
    /// Sum of average token lengths over a config, per side:
    /// `(AL_γ(A), AL_γ(B))`.
    pub fn config_lengths(&self, config: Config) -> (f64, f64) {
        let mut la = 0.0;
        let mut lb = 0.0;
        for p in config.positions() {
            la += self.avg_tokens_a[p];
            lb += self.avg_tokens_b[p];
        }
        (la, lb)
    }
}

/// One node of the config tree.
#[derive(Debug, Clone)]
pub struct ConfigNode {
    /// The config at this node.
    pub config: Config,
    /// Parent node index (`None` for the root).
    pub parent: Option<usize>,
    /// Whether this node was selected for expansion.
    pub expanded: bool,
}

/// The generated config tree, nodes in breadth-first generation order
/// (the order the joint executor processes them in, §4.2).
#[derive(Debug, Clone)]
pub struct ConfigTree {
    /// Nodes in generation order; node 0 is the root.
    pub nodes: Vec<ConfigNode>,
}

impl ConfigTree {
    /// All configs in generation order.
    pub fn configs(&self) -> Vec<Config> {
        self.nodes.iter().map(|n| n.config).collect()
    }

    /// Number of configs.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Index of the parent of node `i`.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.nodes[i].parent
    }
}

/// Tuning knobs for config generation.
#[derive(Debug, Clone, Copy)]
pub struct ConfigGeneratorParams {
    /// Minimum Jaccard similarity between the two tables' value sets for a
    /// categorical/boolean attribute to survive (§3.2's domain check).
    pub value_jaccard_min: f64,
    /// `δ` of Theorem 3.5 — maximum tolerated relative score change for a
    /// config switch to count as "roughly the same top-k list".
    pub delta: f64,
    /// Whether `FindLongAttr` runs at all (ablation knob; §6.5 reports up
    /// to +11% recall of E from long-attribute handling).
    pub handle_long_attrs: bool,
    /// Cap on `|T|`; attributes with the highest e-scores win.
    pub max_attrs: usize,
}

impl Default for ConfigGeneratorParams {
    fn default() -> Self {
        ConfigGeneratorParams {
            value_jaccard_min: 0.1,
            delta: 0.2,
            handle_long_attrs: true,
            max_attrs: 10,
        }
    }
}

/// The Config Generator of Figure 2.
#[derive(Debug, Clone, Default)]
pub struct ConfigGenerator {
    /// Tuning parameters.
    pub params: ConfigGeneratorParams,
}

impl ConfigGenerator {
    /// A generator with the given parameters.
    pub fn new(params: ConfigGeneratorParams) -> Self {
        ConfigGenerator { params }
    }

    /// Selects the promising attribute set `T` from the two tables.
    pub fn promising(&self, a: &Table, b: &Table) -> PromisingAttrs {
        let (sa, sb) = TableStats::compute_pair(a, b);
        self.promising_from_stats(a, &sa, &sb)
    }

    /// Like [`ConfigGenerator::promising`] but with precomputed stats.
    pub fn promising_from_stats(
        &self,
        a: &Table,
        stats_a: &TableStats,
        stats_b: &TableStats,
    ) -> PromisingAttrs {
        let schema = a.schema();
        let mut picked: Vec<(AttrId, f64, f64, f64)> = Vec::new();
        for attr in schema.attr_ids() {
            let st_a = stats_a.attr(attr);
            let st_b = stats_b.attr(attr);
            // Numerics are dropped: matching tuples still often differ.
            if st_a.attr_type == AttrType::Numeric || st_b.attr_type == AttrType::Numeric {
                continue;
            }
            // Categorical/boolean attributes must share a value domain.
            let categorical = matches!(st_a.attr_type, AttrType::Categorical | AttrType::Boolean)
                || matches!(st_b.attr_type, AttrType::Categorical | AttrType::Boolean);
            if categorical
                && stats_a.value_set_jaccard(stats_b, attr) < self.params.value_jaccard_min
            {
                continue;
            }
            let e = st_a.e_component() * st_b.e_component();
            if e <= 0.0 {
                continue; // entirely missing on one side
            }
            picked.push((attr, e, st_a.avg_tokens, st_b.avg_tokens));
        }
        // Keep the top `max_attrs` by e-score, then restore schema order.
        picked.sort_by(|x, y| y.1.total_cmp(&x.1));
        picked.truncate(self.params.max_attrs.min(32));
        picked.sort_by_key(|x| x.0);
        PromisingAttrs {
            attrs: picked.iter().map(|p| p.0).collect(),
            e_scores: picked.iter().map(|p| p.1).collect(),
            avg_tokens_a: picked.iter().map(|p| p.2).collect(),
            avg_tokens_b: picked.iter().map(|p| p.3).collect(),
        }
    }

    /// Builds the config tree over the promising attributes.
    pub fn build_tree(&self, promising: &PromisingAttrs) -> ConfigTree {
        let m = promising.attrs.len();
        assert!(m >= 1, "need at least one promising attribute");
        let root = Config::full(m);
        let mut nodes = vec![ConfigNode {
            config: root,
            parent: None,
            expanded: false,
        }];
        let mut current = 0usize;
        while nodes[current].config.len() > 1 {
            nodes[current].expanded = true;
            let cfg = nodes[current].config;
            // Children: remove each attribute in turn.
            let first_child = nodes.len();
            for p in cfg.positions() {
                nodes.push(ConfigNode {
                    config: cfg.without(p),
                    parent: Some(current),
                    expanded: false,
                });
            }
            if cfg.len() == 2 {
                break; // children are singletons; nothing left to expand
            }
            // Default: exclude the attribute with the lowest e-score.
            let excluded = self.default_exclusion(cfg, promising);
            let chosen = if self.params.handle_long_attrs {
                let q_default = cfg.without(excluded);
                match self.find_long_attr(cfg, q_default, promising) {
                    Some(f_long) => cfg.without(f_long),
                    None => q_default,
                }
            } else {
                cfg.without(excluded)
            };
            current = first_child
                + cfg
                    .positions()
                    .iter()
                    .position(|&p| !chosen.contains(p))
                    .expect("chosen config is a single-removal child");
        }
        ConfigTree { nodes }
    }

    /// The lowest-e-score position of `cfg` (the default exclusion).
    fn default_exclusion(&self, cfg: Config, promising: &PromisingAttrs) -> usize {
        cfg.positions()
            .into_iter()
            .min_by(|&x, &y| promising.e_scores[x].total_cmp(&promising.e_scores[y]))
            .expect("non-empty config")
    }

    /// `FindLongAttr` (§3.2): returns an attribute of `q_default` judged
    /// "too long" — one that would overwhelm at least half of the configs
    /// containing it in the hypothetical default subtree below
    /// `q_default` — or `None`.
    fn find_long_attr(
        &self,
        parent: Config,
        q_default: Config,
        promising: &PromisingAttrs,
    ) -> Option<usize> {
        let subtree = self.simulate_default_subtree(q_default, promising);
        let (qa, qb) = promising.config_lengths(q_default);
        if qa <= 0.0 || qb <= 0.0 {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        for f in q_default.positions() {
            // β: f's share of the config length, conservative across tables.
            let beta = (promising.avg_tokens_a[f] / qa).min(promising.avg_tokens_b[f] / qb);
            let containing: Vec<Config> = subtree
                .iter()
                .copied()
                .filter(|r| *r != q_default && r.contains(f))
                .collect();
            if containing.is_empty() {
                continue;
            }
            let overwhelmed = containing
                .iter()
                .filter(|&&r| self.overwhelms(beta, q_default, r, qa, qb))
                .count();
            if overwhelmed * 2 >= containing.len() && best.is_none_or(|(_, b)| beta > b) {
                best = Some((f, beta));
            }
        }
        // Sanity: the chosen attribute must be in the parent (it is, since
        // q_default ⊂ parent).
        best.map(|(f, _)| f).filter(|&f| parent.contains(f))
    }

    /// Approximate requirement R2 of Theorem 3.5, with table-average
    /// lengths standing in for per-tuple lengths:
    /// `β ≥ 1 − ((|q|−1)/|q∖r|) · (δ/(1+δ)) · max(AL_q)/ΣAL_q`.
    fn overwhelms(&self, beta: f64, q: Config, r: Config, qa: f64, qb: f64) -> bool {
        let removed = q.len()
            - (Config {
                mask: q.mask() & r.mask(),
            })
            .len();
        if removed == 0 {
            return false;
        }
        let delta = self.params.delta;
        let threshold = 1.0
            - ((q.len() - 1) as f64 / removed as f64)
                * (delta / (1.0 + delta))
                * (qa.max(qb) / (qa + qb));
        beta >= threshold
    }

    /// Simulates the default expansion chain below `q` (no long-attribute
    /// handling), returning every config in that subtree including `q`.
    fn simulate_default_subtree(&self, q: Config, promising: &PromisingAttrs) -> Vec<Config> {
        let mut all = vec![q];
        let mut cur = q;
        while cur.len() > 1 {
            for p in cur.positions() {
                all.push(cur.without(p));
            }
            if cur.len() == 2 {
                break;
            }
            let excluded = self.default_exclusion(cur, promising);
            cur = cur.without(excluded);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_table::{Schema, Tuple};
    use std::sync::Arc;

    fn promising_of(e: &[f64], la: &[f64], lb: &[f64]) -> PromisingAttrs {
        PromisingAttrs {
            attrs: (0..e.len() as u16).map(AttrId).collect(),
            e_scores: e.to_vec(),
            avg_tokens_a: la.to_vec(),
            avg_tokens_b: lb.to_vec(),
        }
    }

    #[test]
    fn config_bit_operations() {
        let c = Config::from_positions([0, 2, 3]);
        assert_eq!(c.len(), 3);
        assert!(c.contains(2));
        assert!(!c.contains(1));
        assert_eq!(c.without(2).positions(), vec![0, 3]);
        assert!(c.without(2).is_subset_of(c));
        assert!(!c.is_subset_of(c.without(0)));
        assert_eq!(Config::full(4).positions(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn tree_has_m_times_m_plus_1_over_2_configs() {
        for m in 1..=8usize {
            let p = promising_of(
                &(0..m).map(|i| 1.0 + i as f64).collect::<Vec<_>>(),
                &vec![3.0; m],
                &vec![3.0; m],
            );
            let tree = ConfigGenerator::default().build_tree(&p);
            assert_eq!(tree.len(), m * (m + 1) / 2, "m={m}");
            // Configs are distinct.
            let mut cfgs = tree.configs();
            cfgs.sort();
            cfgs.dedup();
            assert_eq!(cfgs.len(), m * (m + 1) / 2);
        }
    }

    #[test]
    fn default_expansion_follows_e_scores() {
        // Figure 3.a: T = {n, c, s, d} with e(n) > e(d) > e(c) > e(s):
        // exclude s first (expand ncd), then c (expand nd).
        // Positions: n=0, c=1, s=2, d=3.
        let p = promising_of(&[4.0, 2.0, 1.0, 3.0], &[2.0; 4], &[2.0; 4]);
        let gen = ConfigGenerator::new(ConfigGeneratorParams {
            handle_long_attrs: false,
            ..Default::default()
        });
        let tree = gen.build_tree(&p);
        let expanded: Vec<Config> = tree
            .nodes
            .iter()
            .filter(|n| n.expanded)
            .map(|n| n.config)
            .collect();
        // Expansion chain: ncsd → ncd → nd.
        assert_eq!(expanded[0], Config::from_positions([0, 1, 2, 3]));
        assert_eq!(expanded[1], Config::from_positions([0, 1, 3]));
        assert_eq!(expanded[2], Config::from_positions([0, 3]));
    }

    #[test]
    fn long_attribute_is_removed_early() {
        // Figure 3.b: d is very long → after the first level the generator
        // expands ncs (the config without d) rather than ncd.
        // e(n) > e(d) > e(c) > e(s) as before, but d is 30 tokens long.
        let p = promising_of(
            &[4.0, 2.0, 1.0, 3.0],
            &[2.0, 2.0, 2.0, 30.0],
            &[2.0, 2.0, 2.0, 30.0],
        );
        let tree = ConfigGenerator::default().build_tree(&p);
        let expanded: Vec<Config> = tree
            .nodes
            .iter()
            .filter(|n| n.expanded)
            .map(|n| n.config)
            .collect();
        assert_eq!(expanded[0], Config::from_positions([0, 1, 2, 3]));
        // Second expansion must exclude d (position 3): expand ncs.
        assert_eq!(expanded[1], Config::from_positions([0, 1, 2]));
    }

    #[test]
    fn short_attributes_are_not_flagged_long() {
        let p = promising_of(&[4.0, 2.0, 1.0, 3.0], &[2.0; 4], &[2.0; 4]);
        let with = ConfigGenerator::default().build_tree(&p);
        let without = ConfigGenerator::new(ConfigGeneratorParams {
            handle_long_attrs: false,
            ..Default::default()
        })
        .build_tree(&p);
        assert_eq!(with.configs(), without.configs());
    }

    #[test]
    fn promising_drops_numeric_and_mismatched_categorical() {
        let schema = Arc::new(Schema::from_names(["name", "price", "gender"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        let mut b = Table::new("B", Arc::clone(&schema));
        for i in 0..50 {
            a.push(Tuple::from_present([
                format!("alpha beta {i}"),
                format!("{}", 10 + i),
                if i % 2 == 0 { "male" } else { "female" }.to_string(),
            ]));
            b.push(Tuple::from_present([
                format!("alpha gamma {i}"),
                format!("{}", 20 + i),
                if i % 2 == 0 { "m" } else { "f" }.to_string(),
            ]));
        }
        let p = ConfigGenerator::default().promising(&a, &b);
        assert_eq!(p.attrs, vec![schema.expect_id("name")]);
    }

    #[test]
    fn promising_keeps_matching_categorical() {
        let schema = Arc::new(Schema::from_names(["name", "genre"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        let mut b = Table::new("B", Arc::clone(&schema));
        for i in 0..60 {
            let g = ["rock", "pop", "jazz"][i % 3];
            a.push(Tuple::from_present([
                format!("song number {i}"),
                g.to_string(),
            ]));
            b.push(Tuple::from_present([
                format!("tune number {i}"),
                g.to_string(),
            ]));
        }
        let p = ConfigGenerator::default().promising(&a, &b);
        assert_eq!(p.attrs.len(), 2);
    }

    #[test]
    fn max_attrs_cap_keeps_highest_e_scores() {
        let schema = Arc::new(Schema::from_names(["u1", "u2", "constant"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        let mut b = Table::new("B", Arc::clone(&schema));
        for i in 0..200 {
            // "constant" has one value + high-cardinality look via words to
            // avoid categorical classification collisions: use distinct
            // strings for u1/u2 and a shared constant long text value.
            a.push(Tuple::from_present([
                format!("unique alpha value {i} extra words here"),
                format!("unique beta value {i} extra words here"),
                format!("always the same filler text {}", i % 2),
            ]));
            b.push(Tuple::from_present([
                format!("unique alpha value {i} extra words here"),
                format!("unique beta value {i} extra words here"),
                format!("always the same filler text {}", i % 2),
            ]));
        }
        let gen = ConfigGenerator::new(ConfigGeneratorParams {
            max_attrs: 2,
            ..Default::default()
        });
        let p = gen.promising(&a, &b);
        assert_eq!(p.attrs.len(), 2);
        assert_eq!(
            p.attrs,
            vec![schema.expect_id("u1"), schema.expect_id("u2")]
        );
    }

    #[test]
    fn single_attribute_tree_is_one_node() {
        let p = promising_of(&[1.0], &[2.0], &[2.0]);
        let tree = ConfigGenerator::default().build_tree(&p);
        assert_eq!(tree.len(), 1);
        assert!(!tree.nodes[0].expanded);
    }
}
