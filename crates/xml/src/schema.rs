//! The arena schema tree.

use crate::error::XmlError;
use crate::node::{Node, NodeId};
use serde::{Deserialize, Serialize};

/// An XML schema: a named tree of element declarations stored in an arena.
///
/// Nodes are addressed by dense [`NodeId`]s; the tree shape is kept
/// consistent by construction (children are only added through
/// [`Schema::add_child`]) and checkable after the fact with
/// [`Schema::validate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    name: String,
    nodes: Vec<Node>,
    root: Option<NodeId>,
}

impl Schema {
    /// An empty schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Schema {
            name: name.into(),
            nodes: Vec::new(),
            root: None,
        }
    }

    /// Reserve room for exactly `additional` more nodes — a decoder that
    /// knows the node count up front builds the arena in one allocation.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve_exact(additional);
    }

    /// The schema's name (unique within a repository).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the schema.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the schema has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node id, if a root was added.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Install `node` as root. Fails if a root exists already.
    pub fn add_root(&mut self, node: Node) -> Result<NodeId, XmlError> {
        if self.root.is_some() {
            return Err(XmlError::RootAlreadySet);
        }
        let id = NodeId(self.nodes.len() as u32);
        let mut node = node;
        node.parent = None;
        self.nodes.push(node);
        self.root = Some(id);
        Ok(id)
    }

    /// Append `node` as the last child of `parent`.
    pub fn add_child(&mut self, parent: NodeId, node: Node) -> Result<NodeId, XmlError> {
        if parent.index() >= self.nodes.len() {
            return Err(XmlError::UnknownNode(parent.index()));
        }
        let id = NodeId(self.nodes.len() as u32);
        let mut node = node;
        node.parent = Some(parent);
        self.nodes.push(node);
        self.nodes[parent.index()].children.push(id);
        Ok(id)
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Borrow a node mutably. Structural fields (`parent`, `children`)
    /// should not be edited through this; use the construction API.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Borrow a node, returning an error for out-of-range ids.
    pub fn try_node(&self, id: NodeId) -> Result<&Node, XmlError> {
        self.nodes
            .get(id.index())
            .ok_or(XmlError::UnknownNode(id.index()))
    }

    /// All node ids in arena (insertion) order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Ids of all leaf nodes.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&id| self.node(id).is_leaf())
    }

    /// Depth of `id` (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// The chain of ancestors of `id`, nearest first, excluding `id`.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Whether `a` is an ancestor of `b` (strictly above it).
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = b;
        while let Some(p) = self.node(cur).parent {
            if p == a {
                return true;
            }
            cur = p;
        }
        false
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        let mut count = 1;
        for &c in &self.node(id).children {
            count += self.subtree_size(c);
        }
        count
    }

    /// Tree equality that ignores arena id assignment: two schemas are
    /// structurally equal when their names match and their trees match
    /// node-for-node in document order (name, kind, type, occurs).
    pub fn structural_eq(&self, other: &Schema) -> bool {
        fn node_eq(a: &Schema, an: NodeId, b: &Schema, bn: NodeId) -> bool {
            let (x, y) = (a.node(an), b.node(bn));
            x.name == y.name
                && x.kind == y.kind
                && x.ty == y.ty
                && x.occurs == y.occurs
                && x.children.len() == y.children.len()
                && x.children
                    .iter()
                    .zip(y.children.iter())
                    .all(|(&ca, &cb)| node_eq(a, ca, b, cb))
        }
        if self.name != other.name {
            return false;
        }
        match (self.root, other.root) {
            (None, None) => true,
            (Some(a), Some(b)) => node_eq(self, a, other, b),
            _ => false,
        }
    }

    /// Check all structural invariants; returns the first violation.
    pub fn validate(&self) -> Result<(), XmlError> {
        match self.root {
            None => {
                if !self.nodes.is_empty() {
                    return Err(XmlError::Invariant("nodes exist but no root".into()));
                }
                return Ok(());
            }
            Some(r) => {
                if r.index() >= self.nodes.len() {
                    return Err(XmlError::Invariant("root id out of range".into()));
                }
                if self.node(r).parent.is_some() {
                    return Err(XmlError::Invariant("root has a parent".into()));
                }
            }
        }
        let mut seen_as_child = vec![false; self.nodes.len()];
        for id in self.node_ids() {
            for &c in &self.node(id).children {
                if c.index() >= self.nodes.len() {
                    return Err(XmlError::Invariant(format!("child {c} out of range")));
                }
                if self.node(c).parent != Some(id) {
                    return Err(XmlError::Invariant(format!(
                        "child {c} of {id} has mismatched parent pointer"
                    )));
                }
                if seen_as_child[c.index()] {
                    return Err(XmlError::Invariant(format!("{c} appears as child twice")));
                }
                seen_as_child[c.index()] = true;
            }
        }
        for id in self.node_ids() {
            let is_root = Some(id) == self.root;
            if !is_root && !seen_as_child[id.index()] {
                return Err(XmlError::Invariant(format!("{id} unreachable from root")));
            }
            if is_root && seen_as_child[id.index()] {
                return Err(XmlError::Invariant("root appears as a child".into()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, Occurs, PrimitiveType};

    fn tiny() -> Schema {
        let mut s = Schema::new("bib");
        let root = s.add_root(Node::element("bib")).unwrap();
        let book = s.add_child(root, Node::element("book")).unwrap();
        let mut title = Node::element("title");
        title.ty = PrimitiveType::String;
        s.add_child(book, title).unwrap();
        let mut year = Node::element("year");
        year.ty = PrimitiveType::Integer;
        year.occurs = Occurs::OPTIONAL;
        s.add_child(book, year).unwrap();
        s
    }

    #[test]
    fn construction_and_lookup() {
        let s = tiny();
        assert_eq!(s.len(), 4);
        assert_eq!(s.name(), "bib");
        let root = s.root().unwrap();
        assert_eq!(s.node(root).name, "bib");
        assert_eq!(s.node(root).children.len(), 1);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn double_root_rejected() {
        let mut s = tiny();
        assert_eq!(
            s.add_root(Node::element("x")),
            Err(XmlError::RootAlreadySet)
        );
    }

    #[test]
    fn child_of_unknown_parent_rejected() {
        let mut s = Schema::new("s");
        assert_eq!(
            s.add_child(NodeId(0), Node::element("x")),
            Err(XmlError::UnknownNode(0))
        );
    }

    #[test]
    fn depth_ancestors_subtree() {
        let s = tiny();
        let ids: Vec<NodeId> = s.node_ids().collect();
        let (root, book, title) = (ids[0], ids[1], ids[2]);
        assert_eq!(s.depth(root), 0);
        assert_eq!(s.depth(book), 1);
        assert_eq!(s.depth(title), 2);
        assert_eq!(s.ancestors(title), vec![book, root]);
        assert!(s.is_ancestor(root, title));
        assert!(s.is_ancestor(book, title));
        assert!(!s.is_ancestor(title, book));
        assert!(!s.is_ancestor(title, title));
        assert_eq!(s.subtree_size(root), 4);
        assert_eq!(s.subtree_size(book), 3);
        assert_eq!(s.subtree_size(title), 1);
    }

    #[test]
    fn leaves_iterator() {
        let s = tiny();
        let leaves: Vec<String> = s.leaves().map(|id| s.node(id).name.clone()).collect();
        assert_eq!(leaves, vec!["title", "year"]);
    }

    #[test]
    fn validate_catches_corruption() {
        let mut s = tiny();
        // Corrupt a parent pointer through node_mut (documented misuse).
        let ids: Vec<NodeId> = s.node_ids().collect();
        s.node_mut(ids[2]).parent = Some(ids[0]);
        assert!(matches!(s.validate(), Err(XmlError::Invariant(_))));
    }

    #[test]
    fn empty_schema_validates() {
        assert!(Schema::new("e").validate().is_ok());
        assert!(Schema::new("e").is_empty());
        assert_eq!(Schema::new("e").root(), None);
    }

    #[test]
    fn try_node_bounds() {
        let s = tiny();
        assert!(s.try_node(NodeId(0)).is_ok());
        assert!(s.try_node(NodeId(99)).is_err());
    }
}
