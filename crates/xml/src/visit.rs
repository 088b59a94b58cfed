//! Tree traversal helpers.

use crate::node::NodeId;
use crate::schema::Schema;

/// Node ids in pre-order (parent before children, document order).
///
/// Returns an empty vector for a schema without a root.
pub fn preorder(schema: &Schema) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(schema.len());
    let Some(root) = schema.root() else {
        return out;
    };
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        out.push(id);
        // Push children reversed so the first child is visited first.
        for &c in schema.node(id).children.iter().rev() {
            stack.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::node::PrimitiveType;

    fn sample() -> Schema {
        SchemaBuilder::new("t")
            .root("r")
            .child("a", |a| {
                a.leaf("x", PrimitiveType::String)
                    .leaf("y", PrimitiveType::String)
            })
            .child("b", |b| b.leaf("x", PrimitiveType::Integer))
            .build()
    }

    fn names(schema: &Schema, ids: &[NodeId]) -> Vec<String> {
        ids.iter().map(|&id| schema.node(id).name.clone()).collect()
    }

    #[test]
    fn preorder_is_document_order() {
        let s = sample();
        assert_eq!(names(&s, &preorder(&s)), vec!["r", "a", "x", "y", "b", "x"]);
    }

    #[test]
    fn traversals_cover_all_nodes_once() {
        let s = sample();
        let mut sorted = preorder(&s);
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), s.len());
    }

    #[test]
    fn empty_schema_traversals() {
        let s = Schema::new("e");
        assert!(preorder(&s).is_empty());
    }
}
