//! The flat schema-column arena.
//!
//! The request path reads two per-node facts of every schema it
//! touches: the node's interned [`LabelId`] (candidate generation and
//! the cost-matrix fill index score and bound rows with it) and the
//! node's place in its tree (the search prices every candidate edge by
//! an ancestor test and a depth gap). [`ColumnArena`] keeps both for
//! every schema slot in two contiguous arrays, addressed by per-slot
//! offsets, so a request walks one allocation instead of one per schema
//! and prices an edge with an interval test instead of parent-pointer
//! walks.
//!
//! * **Per node:** its label id and its [`NodeShape`] — pre-order index,
//!   subtree end and depth — computed once, when the schema enters the
//!   slot.
//! * **Mutation policy:** adding a schema appends a slot. Writing a slot
//!   with a schema of the same node count overwrites it in place (the
//!   usual replace); any other write — removal, a tombstone refilled, a
//!   replace that changes the node count — splices the slot to its new
//!   length. The arena therefore never holds dead entries: its length is
//!   always the repository's total element count.
//! * **Persistence:** shapes are never persisted. A snapshot stores the
//!   label columns; loading rebuilds every shape from the schema list.

use crate::intern::LabelId;
use crate::repository::SchemaId;
use smx_xml::Schema;
use std::ops::Range;

/// A node's position in its schema's tree, as an interval over the
/// schema's pre-order: the node's own pre-order index, one past the
/// pre-order index of its last descendant, and its depth.
///
/// `a` is a proper ancestor of `b` exactly when `b`'s pre-order index
/// falls strictly inside `a`'s subtree interval — one comparison pair
/// instead of a walk up `b`'s parent chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeShape {
    /// Pre-order index of the node within its schema (the root is 0).
    pub pre: u32,
    /// One past the pre-order index of the node's last descendant:
    /// the node's subtree is the pre-order range `pre..end`.
    pub end: u32,
    /// Depth of the node (the root has depth 0).
    pub depth: u32,
}

impl NodeShape {
    /// Whether `self` is a proper ancestor of `other` (both nodes of the
    /// same schema) — [`Schema::is_ancestor`] as an interval test.
    #[inline]
    pub fn is_ancestor_of(self, other: NodeShape) -> bool {
        self.pre < other.pre && other.pre < self.end
    }

    /// The depth gap from `self` down to `other` when `self` is a proper
    /// ancestor of `other`, `None` otherwise — equal to
    /// `Schema::depth(other) - Schema::depth(self)` whenever
    /// [`Schema::is_ancestor`] holds.
    #[inline]
    pub fn ancestor_gap(self, other: NodeShape) -> Option<usize> {
        self.is_ancestor_of(other)
            .then(|| (other.depth - self.depth) as usize)
    }

    /// Write the shape of every node of `schema` into `out`, arena
    /// order. `out.len()` must equal `schema.len()`.
    ///
    /// Relies on the construction invariant of [`Schema`] (nodes are
    /// only ever appended under an existing node): every node's parent
    /// precedes it in arena order. So parent pointers alone give the
    /// tree: subtree sizes accumulate in one backward pass, and one
    /// forward pass places each node right after its earlier siblings'
    /// subtrees (siblings in arena order, which is document order) — no
    /// stack, no child lists.
    pub(crate) fn fill(schema: &Schema, out: &mut [NodeShape]) {
        assert_eq!(out.len(), schema.len(), "one shape per schema node");
        // Each node is read once: its parent index parks in `pre` (the
        // root's as `NO_PARENT`) and its subtree size in `end`.
        const NO_PARENT: u32 = u32::MAX;
        for (id, shape) in schema.node_ids().zip(out.iter_mut()) {
            let parent = schema.node(id).parent;
            debug_assert!(parent.is_none_or(|p| p < id), "parents precede children");
            *shape = NodeShape {
                pre: parent.map_or(NO_PARENT, |p| p.0),
                end: 1,
                depth: 0,
            };
        }
        for i in (0..out.len()).rev() {
            if out[i].pre != NO_PARENT {
                out[out[i].pre as usize].end += out[i].end;
            }
        }
        // Forward: a visited node's `end` is the cursor where its next
        // child's subtree starts; once every child has advanced it past
        // its own subtree, it is the node's subtree end. The root gets
        // pre 0 and keeps depth 0.
        for i in 0..out.len() {
            let NodeShape {
                pre: parent,
                end: size,
                ..
            } = out[i];
            if parent == NO_PARENT {
                out[i].pre = 0;
            } else {
                let parent = &mut out[parent as usize];
                let (pre, depth) = (parent.end, parent.depth + 1);
                parent.end += size;
                out[i].pre = pre;
                out[i].depth = depth;
            }
            out[i].end = out[i].pre + 1;
        }
    }
}

/// Every schema slot's per-node label ids and [`NodeShape`]s in two
/// contiguous arrays (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnArena {
    /// `starts[s]..starts[s + 1]` is slot `s`'s node range; one entry
    /// more than there are slots.
    starts: Vec<usize>,
    labels: Vec<LabelId>,
    shapes: Vec<NodeShape>,
}

impl ColumnArena {
    /// An arena with no slots.
    pub(crate) fn new() -> Self {
        ColumnArena {
            starts: vec![0],
            labels: Vec::new(),
            shapes: Vec::new(),
        }
    }

    /// Number of schema slots (tombstoned slots included, empty).
    pub fn slots(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total nodes held across every slot.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no slot holds any node.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    #[inline]
    fn range(&self, sid: SchemaId) -> Range<usize> {
        self.starts[sid.index()]..self.starts[sid.index() + 1]
    }

    /// Per-node label ids of slot `sid`, arena order.
    #[inline]
    pub(crate) fn labels(&self, sid: SchemaId) -> &[LabelId] {
        &self.labels[self.range(sid)]
    }

    /// Per-node shapes of slot `sid`, arena order.
    #[inline]
    pub(crate) fn shapes(&self, sid: SchemaId) -> &[NodeShape] {
        &self.shapes[self.range(sid)]
    }

    /// Reserve room for `slots` more slots holding `nodes` more nodes.
    pub(crate) fn reserve(&mut self, slots: usize, nodes: usize) {
        self.starts.reserve(slots);
        self.labels.reserve(nodes);
        self.shapes.reserve(nodes);
    }

    /// Append a slot holding `schema`, whose per-node labels are
    /// `labels`.
    pub(crate) fn push(&mut self, labels: impl IntoIterator<Item = LabelId>, schema: &Schema) {
        let start = self.labels.len();
        self.labels.extend(labels);
        let end = self.labels.len();
        assert_eq!(end - start, schema.len(), "one label per schema node");
        self.shapes.resize(end, NodeShape::default());
        NodeShape::fill(schema, &mut self.shapes[start..]);
        self.starts.push(end);
    }

    /// Make slot `sid` hold `schema`, whose per-node labels are
    /// `labels`: in place when the node count is unchanged, spliced
    /// otherwise.
    pub(crate) fn write(&mut self, sid: SchemaId, labels: &[LabelId], schema: &Schema) {
        assert_eq!(labels.len(), schema.len(), "one label per schema node");
        let range = self.resize(sid, labels.len());
        self.labels[range.clone()].copy_from_slice(labels);
        NodeShape::fill(schema, &mut self.shapes[range]);
    }

    /// Empty slot `sid` (a removal), splicing its nodes out.
    pub(crate) fn clear(&mut self, sid: SchemaId) {
        self.resize(sid, 0);
    }

    /// Give slot `sid` room for exactly `n` nodes and return its range.
    /// A slot already `n` long is left as is; otherwise its entries are
    /// spliced to placeholders the caller overwrites, and every later
    /// slot's offset moves by the difference.
    fn resize(&mut self, sid: SchemaId, n: usize) -> Range<usize> {
        let old = self.range(sid);
        if old.len() != n {
            self.labels
                .splice(old.clone(), std::iter::repeat_n(LabelId(0), n));
            self.shapes
                .splice(old.clone(), std::iter::repeat_n(NodeShape::default(), n));
            for start in &mut self.starts[sid.index() + 1..] {
                *start = *start - old.len() + n;
            }
        }
        old.start..old.start + n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_xml::{Node, PrimitiveType, SchemaBuilder};

    /// A schema whose arena order is not its pre-order: the root's
    /// second child is added before the first child's own children.
    fn interleaved() -> Schema {
        let mut s = Schema::new("s");
        let root = s.add_root(Node::element("r")).unwrap();
        let a = s.add_child(root, Node::element("a")).unwrap();
        let b = s.add_child(root, Node::element("b")).unwrap();
        let a1 = s.add_child(a, Node::element("a1")).unwrap();
        s.add_child(b, Node::element("b1")).unwrap();
        s.add_child(a1, Node::element("a2")).unwrap();
        s
    }

    fn shapes_of(schema: &Schema) -> Vec<NodeShape> {
        let mut out = vec![NodeShape::default(); schema.len()];
        NodeShape::fill(schema, &mut out);
        out
    }

    #[test]
    fn shapes_agree_with_parent_walks() {
        let s = interleaved();
        let shapes = shapes_of(&s);
        // Pre-order: r a a1 a2 b b1.
        let pre: Vec<u32> = shapes.iter().map(|x| x.pre).collect();
        assert_eq!(pre, vec![0, 1, 4, 2, 5, 3]);
        for a in s.node_ids() {
            assert_eq!(shapes[a.index()].depth as usize, s.depth(a));
            for b in s.node_ids() {
                let gap = shapes[a.index()].ancestor_gap(shapes[b.index()]);
                let expect = s.is_ancestor(a, b).then(|| s.depth(b) - s.depth(a));
                assert_eq!(gap, expect, "{a} over {b}");
            }
        }
        assert_eq!(shapes[0].end, 6);
        assert_eq!(shapes[3].end, 4); // a1 spans a1, a2
    }

    #[test]
    fn writes_overwrite_in_place_or_splice() {
        let small = SchemaBuilder::new("x")
            .root("r")
            .leaf("a", PrimitiveType::String)
            .build();
        let big = interleaved();
        let ids = |n: u32, len: usize| (n..n + len as u32).map(LabelId).collect::<Vec<_>>();
        let mut arena = ColumnArena::new();
        arena.push(ids(0, 2), &small);
        arena.push(ids(10, 6), &big);
        arena.push(ids(20, 2), &small);
        assert_eq!((arena.slots(), arena.len()), (3, 10));

        // Same node count: in place, neighbours untouched.
        arena.write(SchemaId(0), &ids(30, 2), &small);
        assert_eq!(arena.labels(SchemaId(0)), &ids(30, 2)[..]);
        assert_eq!(arena.labels(SchemaId(1)), &ids(10, 6)[..]);

        // Shrink, clear, regrow: every later slot follows.
        arena.write(SchemaId(1), &ids(40, 2), &small);
        assert_eq!(arena.len(), 6);
        assert_eq!(arena.labels(SchemaId(2)), &ids(20, 2)[..]);
        arena.clear(SchemaId(0));
        assert!(arena.labels(SchemaId(0)).is_empty());
        assert_eq!(arena.len(), 4);
        arena.write(SchemaId(0), &ids(50, 6), &big);
        assert_eq!(arena.len(), 10);
        assert_eq!(arena.shapes(SchemaId(0)), &shapes_of(&big)[..]);
        assert_eq!(arena.shapes(SchemaId(1)), &shapes_of(&small)[..]);
        assert_eq!(arena.labels(SchemaId(2)), &ids(20, 2)[..]);
    }
}
