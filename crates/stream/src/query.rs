//! SPJ query model (§II of the paper).
//!
//! A query joins `n` streams under sliding-window semantics. For each stream
//! a *state* is instantiated; the state's **join attribute set** (JAS) is the
//! set of its attributes named by at least one join predicate. Every search
//! request hitting the state uses some subset of the JAS — an access pattern.
//!
//! [`JoinGraph`] precomputes everything the engine needs per probe: given a
//! partial tuple covering streams `M` and a target state `s`, which JAS
//! positions of `s` are constrained (the probe's access pattern) and where in
//! the partial tuple each constraining value comes from.

use crate::error::StreamError;
use crate::pattern::AccessPattern;
use crate::schema::{AttrId, StreamId, StreamSchema};
use crate::tuple::{Parts, StreamMask, MAX_STREAMS};
use crate::value::{AttrValue, AttrVec, MAX_ATTRS};
use crate::window::WindowSpec;
use serde::{Deserialize, Serialize};

/// Join comparison operator.
///
/// The bit-address index and the hash baselines accelerate equality joins;
/// non-equality predicates are evaluated as residual filters after the
/// equality lookup (or during a scan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinOp {
    /// `=` — indexable.
    Eq,
    /// `<` — residual filter only.
    Lt,
    /// `>` — residual filter only.
    Gt,
    /// `≤` — residual filter only.
    Le,
    /// `≥` — residual filter only.
    Ge,
}

impl JoinOp {
    /// True iff the operator can be served by hashing (equality).
    #[inline]
    pub fn indexable(self) -> bool {
        matches!(self, JoinOp::Eq)
    }

    /// Evaluate the operator with `left` on the left-hand side.
    #[inline]
    pub fn eval(self, left: u64, right: u64) -> bool {
        match self {
            JoinOp::Eq => left == right,
            JoinOp::Lt => left < right,
            JoinOp::Gt => left > right,
            JoinOp::Le => left <= right,
            JoinOp::Ge => left >= right,
        }
    }

    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    #[inline]
    pub fn flipped(self) -> JoinOp {
        match self {
            JoinOp::Eq => JoinOp::Eq,
            JoinOp::Lt => JoinOp::Gt,
            JoinOp::Gt => JoinOp::Lt,
            JoinOp::Le => JoinOp::Ge,
            JoinOp::Ge => JoinOp::Le,
        }
    }
}

/// One join predicate `S1.a1 op S2.a2` from the WHERE clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JoinPredicate {
    /// Left stream/attribute reference.
    pub left: (StreamId, AttrId),
    /// Comparison operator.
    pub op: JoinOp,
    /// Right stream/attribute reference.
    pub right: (StreamId, AttrId),
}

impl JoinPredicate {
    /// Equality predicate `s1.a1 = s2.a2`.
    pub fn eq(s1: StreamId, a1: AttrId, s2: StreamId, a2: AttrId) -> Self {
        JoinPredicate {
            left: (s1, a1),
            op: JoinOp::Eq,
            right: (s2, a2),
        }
    }

    /// True iff the predicate touches stream `s`.
    #[inline]
    pub fn touches(&self, s: StreamId) -> bool {
        self.left.0 == s || self.right.0 == s
    }

    /// If the predicate touches `s`, return `(s's attribute, other stream,
    /// other attribute, op-as-seen-from-s)`.
    pub fn from_perspective(&self, s: StreamId) -> Option<(AttrId, StreamId, AttrId, JoinOp)> {
        if self.left.0 == s {
            Some((self.left.1, self.right.0, self.right.1, self.op))
        } else if self.right.0 == s {
            Some((self.right.1, self.left.0, self.left.1, self.op.flipped()))
        } else {
            None
        }
    }
}

/// A local selection predicate `S.a op constant` applied at ingest: tuples
/// failing their stream's selections never enter the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Selection {
    /// Stream the selection filters.
    pub stream: StreamId,
    /// Attribute compared.
    pub attr: AttrId,
    /// Comparison operator.
    pub op: JoinOp,
    /// Constant right-hand side.
    pub value: u64,
}

impl Selection {
    /// True iff `tuple_attrs` (schema-aligned) passes this selection.
    #[inline]
    pub fn accepts(&self, tuple_attrs: &[AttrValue]) -> bool {
        self.op.eval(tuple_attrs[self.attr.idx()], self.value)
    }
}

/// A select-project-join query over `n` windowed streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpjQuery {
    /// Query name, for reports.
    pub name: String,
    /// One schema per stream; `StreamId(i)` indexes this vector.
    pub schemas: Vec<StreamSchema>,
    /// Join predicates from the WHERE clause.
    pub predicates: Vec<JoinPredicate>,
    /// Local selection predicates, applied at ingest.
    pub selections: Vec<Selection>,
    /// Per-stream sliding windows; parallel to `schemas`.
    pub windows: Vec<WindowSpec>,
}

impl SpjQuery {
    /// Build and validate a query.
    ///
    /// # Errors
    /// * [`StreamError::InvalidQuery`] — empty FROM, too many streams,
    ///   self-join predicate, mismatched windows, disconnected join graph.
    /// * [`StreamError::TooManyAttributes`] — a schema wider than
    ///   [`MAX_ATTRS`], whose tuples no [`AttrVec`] could hold.
    /// * [`StreamError::UnknownStream`] / [`StreamError::UnknownAttribute`]
    ///   — dangling references in predicates.
    pub fn new(
        name: impl Into<String>,
        schemas: Vec<StreamSchema>,
        predicates: Vec<JoinPredicate>,
        windows: Vec<WindowSpec>,
    ) -> Result<Self, StreamError> {
        let q = SpjQuery {
            name: name.into(),
            schemas,
            predicates,
            selections: Vec::new(),
            windows,
        };
        q.validate()?;
        Ok(q)
    }

    /// Attach local selection predicates (builder style).
    ///
    /// # Errors
    /// Re-validates; dangling stream/attribute references are rejected.
    pub fn with_selections(mut self, selections: Vec<Selection>) -> Result<Self, StreamError> {
        self.selections = selections;
        self.validate()?;
        Ok(self)
    }

    /// True iff a tuple of `stream` with the given schema-aligned attribute
    /// values passes every selection on that stream.
    pub fn passes_selections(&self, stream: StreamId, attrs: &[AttrValue]) -> bool {
        self.selections
            .iter()
            .filter(|s| s.stream == stream)
            .all(|s| s.accepts(attrs))
    }

    fn validate(&self) -> Result<(), StreamError> {
        if self.schemas.is_empty() {
            return Err(StreamError::InvalidQuery("empty FROM clause".into()));
        }
        if self.schemas.len() > MAX_STREAMS {
            return Err(StreamError::InvalidQuery(format!(
                "{} streams exceeds the {MAX_STREAMS}-stream limit",
                self.schemas.len()
            )));
        }
        if let Some(wide) = self.schemas.iter().find(|s| s.arity() > MAX_ATTRS) {
            return Err(StreamError::TooManyAttributes {
                requested: wide.arity(),
                max: MAX_ATTRS,
            });
        }
        if self.windows.len() != self.schemas.len() {
            return Err(StreamError::InvalidQuery(
                "one window spec required per stream".into(),
            ));
        }
        let n = self.schemas.len() as u16;
        for p in &self.predicates {
            for &(s, a) in [&p.left, &p.right] {
                if s.0 >= n {
                    return Err(StreamError::UnknownStream(s.0));
                }
                if a.idx() >= self.schemas[s.idx()].arity() {
                    return Err(StreamError::UnknownAttribute {
                        stream: s.0,
                        attr: a.0,
                    });
                }
            }
            if p.left.0 == p.right.0 {
                return Err(StreamError::InvalidQuery(format!(
                    "self-join predicate on {}",
                    p.left.0
                )));
            }
        }
        for sel in &self.selections {
            if sel.stream.0 >= n {
                return Err(StreamError::UnknownStream(sel.stream.0));
            }
            if sel.attr.idx() >= self.schemas[sel.stream.idx()].arity() {
                return Err(StreamError::UnknownAttribute {
                    stream: sel.stream.0,
                    attr: sel.attr.0,
                });
            }
        }
        // Join graph must be connected (otherwise routing can never complete
        // a tuple: a probe against an unconnected state is a cross product).
        if self.schemas.len() > 1 {
            let mut reached = StreamMask::only(StreamId(0));
            let mut frontier = vec![StreamId(0)];
            while let Some(s) = frontier.pop() {
                for p in &self.predicates {
                    if let Some((_, other, _, _)) = p.from_perspective(s) {
                        if !reached.covers(other) {
                            reached = reached.with(other);
                            frontier.push(other);
                        }
                    }
                }
            }
            if reached.count() as usize != self.schemas.len() {
                return Err(StreamError::InvalidQuery(
                    "join graph is disconnected".into(),
                ));
            }
        }
        Ok(())
    }

    /// Number of joined streams.
    #[inline]
    pub fn n_streams(&self) -> usize {
        self.schemas.len()
    }

    /// The join attribute set of stream `s`: its attributes named by at
    /// least one predicate, ascending and deduplicated. JAS position *i*
    /// (used by access patterns) is the *i*-th entry of this vector.
    pub fn jas(&self, s: StreamId) -> Vec<AttrId> {
        let mut out: Vec<AttrId> = self
            .predicates
            .iter()
            .filter_map(|p| p.from_perspective(s).map(|(a, _, _, _)| a))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Precompute the routing-time join graph.
    pub fn join_graph(&self) -> JoinGraph {
        JoinGraph::new(self)
    }
}

/// One constraint a probe places on a target state's JAS attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeBinding {
    /// JAS position (within the target's JAS) being constrained.
    pub jas_pos: usize,
    /// Stream the constraining value comes from.
    pub src_stream: StreamId,
    /// Attribute of the source stream holding the value.
    pub src_attr: AttrId,
    /// Comparison, as seen from the target (`target.attr op value`).
    pub op: JoinOp,
}

/// Everything about a probe of one target by partial tuples covering one
/// stream set that does not depend on the tuple's values: the bindings of
/// every covered source stream, folded once at graph construction.
#[derive(Debug, Clone)]
struct ProbePlan {
    /// The access pattern the equality bindings specify.
    pattern: AccessPattern,
    /// The target's JAS width zeros — the value vector before any binding
    /// is applied (wildcard slots stay zero).
    wildcards: AttrVec,
    /// Equality bindings, in fold order (covered sources ascending, then
    /// predicate order): each copies one source value into its JAS slot.
    sets: Vec<ProbeBinding>,
    /// Non-equality bindings, same order: evaluated per candidate.
    residual: Vec<ProbeBinding>,
}

/// Precomputed per-target probe metadata for a query.
///
/// For each target state the graph stores, per possible source stream, the
/// bindings its predicates induce, and per possible covered stream set the
/// [`ProbePlan`] those bindings fold into. At routing time
/// [`JoinGraph::probe_values`] only copies the plan's source values out of
/// the partial tuple.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    n_streams: usize,
    /// `jas[s]` — JAS of stream `s`.
    jas: Vec<Vec<AttrId>>,
    /// `bindings[target][source]` — constraints on `target`'s JAS arising
    /// from predicates between `target` and `source`.
    bindings: Vec<Vec<Vec<ProbeBinding>>>,
    /// `plans[target][covered mask]`.
    plans: Vec<Vec<ProbePlan>>,
}

impl JoinGraph {
    fn new(q: &SpjQuery) -> Self {
        let n = q.n_streams();
        let jas: Vec<Vec<AttrId>> = (0..n).map(|s| q.jas(StreamId(s as u16))).collect();
        let mut bindings = vec![vec![Vec::new(); n]; n];
        for (target_idx, target_jas) in jas.iter().enumerate() {
            let target = StreamId(target_idx as u16);
            for p in &q.predicates {
                if let Some((t_attr, src, src_attr, op)) = p.from_perspective(target) {
                    let jas_pos = target_jas
                        .iter()
                        .position(|&a| a == t_attr)
                        .expect("predicate attribute must be in JAS");
                    bindings[target_idx][src.idx()].push(ProbeBinding {
                        jas_pos,
                        src_stream: src,
                        src_attr,
                        op,
                    });
                }
            }
        }
        let mut graph = JoinGraph {
            n_streams: n,
            jas,
            bindings,
            plans: Vec::new(),
        };
        graph.plans = (0..n as u16)
            .map(|t| {
                (0..1u16 << n)
                    .map(|m| graph.plan(StreamMask(m), StreamId(t)))
                    .collect()
            })
            .collect();
        graph
    }

    /// Fold the bindings of every `covered` source stream against `target`.
    fn plan(&self, covered: StreamMask, target: StreamId) -> ProbePlan {
        let (sets, residual) = covered
            .streams()
            .flat_map(|src| self.bindings(target, src).iter().copied())
            .partition(|b: &ProbeBinding| b.op.indexable());
        ProbePlan {
            pattern: self.probe_pattern(covered, target),
            wildcards: AttrVec::from_slice(&[0; MAX_ATTRS][..self.jas_width(target)])
                .expect("a JAS is no wider than its schema, which validation bounds"),
            sets,
            residual,
        }
    }

    /// Number of streams in the underlying query.
    #[inline]
    pub fn n_streams(&self) -> usize {
        self.n_streams
    }

    /// JAS of stream `s`.
    #[inline]
    pub fn jas(&self, s: StreamId) -> &[AttrId] {
        &self.jas[s.idx()]
    }

    /// JAS width of stream `s`.
    #[inline]
    pub fn jas_width(&self, s: StreamId) -> usize {
        self.jas[s.idx()].len()
    }

    /// The bindings predicates between `target` and `source` induce on
    /// `target`'s JAS.
    #[inline]
    pub fn bindings(&self, target: StreamId, source: StreamId) -> &[ProbeBinding] {
        &self.bindings[target.idx()][source.idx()]
    }

    /// True iff `target` and `source` are directly joined.
    #[inline]
    pub fn joined(&self, target: StreamId, source: StreamId) -> bool {
        !self.bindings(target, source).is_empty()
    }

    /// The access pattern a probe from a partial tuple covering `covered`
    /// uses against `target` — the heart of the AMR/index coupling: the more
    /// streams the partial tuple already joined, the more of the target's
    /// JAS its search specifies.
    ///
    /// Only **equality** bindings contribute to the pattern (non-equality
    /// constraints cannot be hashed and are applied as residual filters).
    pub fn probe_pattern(&self, covered: StreamMask, target: StreamId) -> AccessPattern {
        let width = self.jas_width(target);
        debug_assert!(width <= MAX_ATTRS);
        let mut mask = 0u32;
        for src in covered.streams() {
            for b in self.bindings(target, src) {
                if b.op.indexable() {
                    mask |= 1 << b.jas_pos;
                }
            }
        }
        AccessPattern::new(mask, width)
    }

    /// Materialize the JAS-aligned value vector for a probe of `target` by
    /// partial tuple `pt` (wildcard slots zero), together with the residual
    /// non-equality bindings the caller must evaluate per candidate tuple.
    /// Pattern and bindings come from the table built at construction; only
    /// the values are per-tuple work, and nothing is allocated. `pt` is
    /// read through [`Parts`], so a job still packed in its queue words
    /// probes without being decoded.
    pub fn probe_values(
        &self,
        pt: &impl Parts,
        target: StreamId,
    ) -> (AccessPattern, AttrVec, &[ProbeBinding]) {
        let plan = &self.plans[target.idx()][usize::from(pt.covered().0)];
        let mut values = plan.wildcards;
        for b in &plan.sets {
            let part = pt.part(b.src_stream).expect("covered stream has a part");
            values.set(b.jas_pos, part[b.src_attr.idx()]);
        }
        (plan.pattern, values, &plan.residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrDomain, AttrSpec};
    use crate::time::VirtualTime;
    use crate::tuple::{PartialTuple, Tuple, TupleId};

    /// The paper's evaluation query shape: 4 streams, each joined to the 3
    /// others via a unique attribute (3 join attributes per state).
    pub fn four_way() -> SpjQuery {
        let schema = |name: &str| {
            StreamSchema::new(
                name,
                (0..3)
                    .map(|i| AttrSpec::new(format!("j{i}"), AttrDomain::with_cardinality(1000)))
                    .collect(),
                100,
            )
        };
        let s = |i: u16| StreamId(i);
        let a = |i: u8| AttrId(i);
        // Stream i joins stream j (i<j) via attribute (j-1) on i and i on j:
        // picks a distinct attribute pair per edge so each state's JAS is
        // all three of its attributes.
        let preds = vec![
            JoinPredicate::eq(s(0), a(0), s(1), a(0)),
            JoinPredicate::eq(s(0), a(1), s(2), a(0)),
            JoinPredicate::eq(s(0), a(2), s(3), a(0)),
            JoinPredicate::eq(s(1), a(1), s(2), a(1)),
            JoinPredicate::eq(s(1), a(2), s(3), a(1)),
            JoinPredicate::eq(s(2), a(2), s(3), a(2)),
        ];
        SpjQuery::new(
            "four-way",
            vec![schema("A"), schema("B"), schema("C"), schema("D")],
            preds,
            vec![WindowSpec::secs(30); 4],
        )
        .unwrap()
    }

    #[test]
    fn four_way_query_validates_and_has_full_jas() {
        let q = four_way();
        assert_eq!(q.n_streams(), 4);
        for s in 0..4u16 {
            let jas = q.jas(StreamId(s));
            assert_eq!(jas, vec![AttrId(0), AttrId(1), AttrId(2)], "stream {s}");
        }
    }

    #[test]
    fn validation_rejects_structural_errors() {
        let q = four_way();
        // Self-join predicate:
        let mut bad = q.clone();
        bad.predicates.push(JoinPredicate::eq(
            StreamId(0),
            AttrId(0),
            StreamId(0),
            AttrId(1),
        ));
        assert!(matches!(bad.validate(), Err(StreamError::InvalidQuery(_))));
        // Dangling stream:
        let mut bad = q.clone();
        bad.predicates.push(JoinPredicate::eq(
            StreamId(0),
            AttrId(0),
            StreamId(9),
            AttrId(0),
        ));
        assert!(matches!(bad.validate(), Err(StreamError::UnknownStream(9))));
        // Dangling attribute:
        let mut bad = q.clone();
        bad.predicates.push(JoinPredicate::eq(
            StreamId(0),
            AttrId(7),
            StreamId(1),
            AttrId(0),
        ));
        assert!(matches!(
            bad.validate(),
            Err(StreamError::UnknownAttribute { stream: 0, attr: 7 })
        ));
        // Window count mismatch:
        let mut bad = q.clone();
        bad.windows.pop();
        assert!(bad.validate().is_err());
        // Disconnected graph:
        let mut bad = q.clone();
        bad.predicates.retain(|p| !p.touches(StreamId(3)));
        assert!(matches!(bad.validate(), Err(StreamError::InvalidQuery(_))));
        // Empty FROM:
        let empty = SpjQuery::new("x", vec![], vec![], vec![]);
        assert!(empty.is_err());
    }

    #[test]
    fn join_op_semantics() {
        assert!(JoinOp::Eq.indexable());
        assert!(!JoinOp::Lt.indexable());
        assert!(JoinOp::Lt.eval(1, 2));
        assert!(JoinOp::Ge.eval(2, 2));
        assert_eq!(JoinOp::Lt.flipped(), JoinOp::Gt);
        assert_eq!(JoinOp::Le.flipped(), JoinOp::Ge);
        assert_eq!(JoinOp::Eq.flipped(), JoinOp::Eq);
        // flip round-trips
        for op in [JoinOp::Eq, JoinOp::Lt, JoinOp::Gt, JoinOp::Le, JoinOp::Ge] {
            assert_eq!(op.flipped().flipped(), op);
        }
    }

    #[test]
    fn probe_pattern_grows_with_coverage() {
        // The paper's §I example: t1 routed A⋈B then to C probes C with two
        // attributes; t2 routed directly to C probes with one.
        let q = four_way();
        let g = q.join_graph();
        let target = StreamId(2); // state C

        let only_a = StreamMask::only(StreamId(0));
        let p1 = g.probe_pattern(only_a, target);
        assert_eq!(p1.specified(), 1);

        let a_and_b = only_a.with(StreamId(1));
        let p2 = g.probe_pattern(a_and_b, target);
        assert_eq!(p2.specified(), 2);
        assert!(p1.benefits(p2), "wider coverage refines the pattern");

        let a_b_d = a_and_b.with(StreamId(3));
        let p3 = g.probe_pattern(a_b_d, target);
        assert_eq!(p3.specified(), 3);
        assert_eq!(p3, AccessPattern::full(3));
    }

    #[test]
    fn probe_values_carry_source_attributes() {
        let q = four_way();
        let g = q.join_graph();
        // Base tuple from stream A with attrs [10, 20, 30].
        let t = Tuple::new(
            TupleId(1),
            StreamId(0),
            VirtualTime::ZERO,
            AttrVec::from_slice(&[10, 20, 30]).unwrap(),
        );
        let pt = PartialTuple::from_base(&t);
        // Probing C: predicate A.a1 = C.a0 → C's JAS pos 0 gets value 20.
        let (pat, vals, residual) = g.probe_values(&pt, StreamId(2));
        assert_eq!(pat.specified(), 1);
        assert!(pat.uses(0));
        assert_eq!(vals[0], 20);
        assert!(residual.is_empty());
        // Probing D: predicate A.a2 = D.a0 → D's JAS pos 0 gets value 30.
        let (pat, vals, _) = g.probe_values(&pt, StreamId(3));
        assert!(pat.uses(0));
        assert_eq!(vals[0], 30);
    }

    #[test]
    fn non_equality_predicates_become_residuals() {
        let schema = |name: &str| {
            StreamSchema::new(
                name,
                vec![
                    AttrSpec::new("x", AttrDomain::with_cardinality(100)),
                    AttrSpec::new("y", AttrDomain::with_cardinality(100)),
                ],
                0,
            )
        };
        let q = SpjQuery::new(
            "mixed",
            vec![schema("A"), schema("B")],
            vec![
                JoinPredicate::eq(StreamId(0), AttrId(0), StreamId(1), AttrId(0)),
                JoinPredicate {
                    left: (StreamId(0), AttrId(1)),
                    op: JoinOp::Lt,
                    right: (StreamId(1), AttrId(1)),
                },
            ],
            vec![WindowSpec::secs(10); 2],
        )
        .unwrap();
        let g = q.join_graph();
        let t = Tuple::new(
            TupleId(1),
            StreamId(0),
            VirtualTime::ZERO,
            AttrVec::from_slice(&[5, 7]).unwrap(),
        );
        let pt = PartialTuple::from_base(&t);
        let (pat, vals, residual) = g.probe_values(&pt, StreamId(1));
        // Only the equality contributes to the pattern.
        assert_eq!(pat.specified(), 1);
        assert_eq!(vals[0], 5);
        assert_eq!(residual.len(), 1);
        // From B's perspective A.y < B.y reads B.y > 7.
        assert_eq!(residual[0].op, JoinOp::Gt);
        assert_eq!(residual[0].src_attr, AttrId(1));
    }

    /// The per-job fold `probe_values` ran before the plan table existed.
    fn folded_probe_values(
        g: &JoinGraph,
        pt: &PartialTuple,
        target: StreamId,
    ) -> (AccessPattern, AttrVec, Vec<ProbeBinding>) {
        let width = g.jas_width(target);
        let mut values: AttrVec = std::iter::repeat_n(0, width).collect();
        let mut mask = 0u32;
        let mut residual = Vec::new();
        for src in pt.covered.streams() {
            let part = pt.part(src).expect("covered stream has a part");
            for b in g.bindings(target, src) {
                if b.op.indexable() {
                    mask |= 1 << b.jas_pos;
                    values.set(b.jas_pos, part[b.src_attr.idx()]);
                } else {
                    residual.push(*b);
                }
            }
        }
        (AccessPattern::new(mask, width), values, residual)
    }

    #[test]
    fn probe_table_equals_the_fold_for_every_target_and_coverage() {
        // A 3-way chain with two non-equality predicates and one JAS slot
        // bound from two sources, so order within `sets`/`residual` shows.
        let schema = |name: &str| {
            StreamSchema::new(
                name,
                (0..2)
                    .map(|i| AttrSpec::new(format!("c{i}"), AttrDomain::with_cardinality(100)))
                    .collect(),
                0,
            )
        };
        let pred = |l: u16, la: u8, op: JoinOp, r: u16, ra: u8| JoinPredicate {
            left: (StreamId(l), AttrId(la)),
            op,
            right: (StreamId(r), AttrId(ra)),
        };
        let mixed = SpjQuery::new(
            "mixed",
            vec![schema("A"), schema("B"), schema("C")],
            vec![
                pred(0, 0, JoinOp::Eq, 1, 0),
                pred(2, 1, JoinOp::Eq, 1, 0),
                pred(0, 1, JoinOp::Lt, 1, 1),
                pred(1, 1, JoinOp::Ge, 2, 0),
            ],
            vec![WindowSpec::secs(10); 3],
        )
        .unwrap();
        for q in [four_way(), mixed] {
            let g = q.join_graph();
            let n = q.n_streams();
            for target in (0..n as u16).map(StreamId) {
                for mask in 1..1u16 << n {
                    let covered = StreamMask(mask);
                    if covered.covers(target) {
                        continue;
                    }
                    // Distinct values per (stream, attribute) slot.
                    let pt = PartialTuple::from_parts(
                        covered,
                        VirtualTime::ZERO,
                        covered.streams().map(|s| {
                            (0..q.schemas[s.idx()].arity() as u64)
                                .map(|a| 1000 * (u64::from(s.0) + 1) + a)
                                .collect()
                        }),
                    );
                    let (pattern, values, residual) = g.probe_values(&pt, target);
                    let (want_pattern, want_values, want_residual) =
                        folded_probe_values(&g, &pt, target);
                    assert_eq!(pattern, want_pattern, "{} {covered:?}→{target}", q.name);
                    assert_eq!(pattern, g.probe_pattern(covered, target));
                    assert_eq!(values, want_values, "{} {covered:?}→{target}", q.name);
                    assert_eq!(
                        residual,
                        &want_residual[..],
                        "{} {covered:?}→{target}",
                        q.name
                    );
                }
            }
        }
    }

    #[test]
    fn schema_wider_than_an_attr_vec_is_rejected() {
        let schema = |name: &str, arity: usize| {
            StreamSchema::new(
                name,
                (0..arity)
                    .map(|i| AttrSpec::new(format!("c{i}"), AttrDomain::with_cardinality(10)))
                    .collect(),
                0,
            )
        };
        let build = |arity| {
            SpjQuery::new(
                "wide",
                vec![schema("A", 1), schema("B", arity)],
                vec![JoinPredicate::eq(
                    StreamId(0),
                    AttrId(0),
                    StreamId(1),
                    AttrId(0),
                )],
                vec![WindowSpec::secs(10); 2],
            )
        };
        assert!(build(MAX_ATTRS).is_ok(), "the cap itself is a valid arity");
        assert_eq!(
            build(MAX_ATTRS + 1),
            Err(StreamError::TooManyAttributes {
                requested: MAX_ATTRS + 1,
                max: MAX_ATTRS
            })
        );
    }

    #[test]
    fn selections_filter_and_validate() {
        let q = four_way();
        // priority >= 5 on stream A.
        let q = q
            .clone()
            .with_selections(vec![Selection {
                stream: StreamId(0),
                attr: AttrId(0),
                op: JoinOp::Ge,
                value: 5,
            }])
            .unwrap();
        assert!(q.passes_selections(StreamId(0), &[5, 0, 0]));
        assert!(!q.passes_selections(StreamId(0), &[4, 0, 0]));
        // Other streams unaffected.
        assert!(q.passes_selections(StreamId(1), &[0, 0, 0]));
        // Several selections on one stream conjoin.
        let q2 = q
            .clone()
            .with_selections(vec![
                Selection {
                    stream: StreamId(0),
                    attr: AttrId(0),
                    op: JoinOp::Ge,
                    value: 5,
                },
                Selection {
                    stream: StreamId(0),
                    attr: AttrId(1),
                    op: JoinOp::Lt,
                    value: 10,
                },
            ])
            .unwrap();
        assert!(q2.passes_selections(StreamId(0), &[5, 9, 0]));
        assert!(!q2.passes_selections(StreamId(0), &[5, 10, 0]));
        // Dangling references rejected.
        assert!(four_way()
            .with_selections(vec![Selection {
                stream: StreamId(9),
                attr: AttrId(0),
                op: JoinOp::Eq,
                value: 0,
            }])
            .is_err());
        assert!(four_way()
            .with_selections(vec![Selection {
                stream: StreamId(0),
                attr: AttrId(7),
                op: JoinOp::Eq,
                value: 0,
            }])
            .is_err());
    }

    #[test]
    fn jas_deduplicates_shared_attributes() {
        // One attribute of A joins both B and C: JAS must list it once.
        let schema = |name: &str, arity: u8| {
            StreamSchema::new(
                name,
                (0..arity)
                    .map(|i| AttrSpec::new(format!("c{i}"), AttrDomain::with_cardinality(10)))
                    .collect(),
                0,
            )
        };
        let q = SpjQuery::new(
            "shared",
            vec![schema("A", 1), schema("B", 1), schema("C", 1)],
            vec![
                JoinPredicate::eq(StreamId(0), AttrId(0), StreamId(1), AttrId(0)),
                JoinPredicate::eq(StreamId(0), AttrId(0), StreamId(2), AttrId(0)),
            ],
            vec![WindowSpec::secs(10); 3],
        )
        .unwrap();
        assert_eq!(q.jas(StreamId(0)), vec![AttrId(0)]);
        let g = q.join_graph();
        assert_eq!(g.jas_width(StreamId(0)), 1);
        assert!(g.joined(StreamId(0), StreamId(1)));
        assert!(!g.joined(StreamId(1), StreamId(2)));
    }
}
