//! Property tests: random schema generation, roundtrip through the text
//! format, and structural invariants.

use proptest::prelude::*;
use smx_xml::*;

/// Strategy for identifier-ish names (never empty).
fn name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z][a-zA-Z0-9_]{0,10}").unwrap()
}

fn occurs() -> impl Strategy<Value = Occurs> {
    (0u32..3, proptest::option::of(0u32..5)).prop_map(|(min, max)| Occurs {
        min,
        max: max.map(|m| m.max(min)),
    })
}

fn primitive() -> impl Strategy<Value = PrimitiveType> {
    prop_oneof![
        Just(PrimitiveType::Complex),
        Just(PrimitiveType::String),
        Just(PrimitiveType::Integer),
        Just(PrimitiveType::Decimal),
        Just(PrimitiveType::Date),
        Just(PrimitiveType::Boolean),
        Just(PrimitiveType::Id),
    ]
}

/// A random tree description: per-node (name, type, occurs, parent-index),
/// where parent-index i for node n is drawn from 0..n so it always refers
/// to an earlier node — yielding a valid forest that we root at node 0.
fn tree_spec(
    max_nodes: usize,
) -> impl Strategy<Value = Vec<(String, PrimitiveType, Occurs, usize)>> {
    proptest::collection::vec(
        (name(), primitive(), occurs(), any::<prop::sample::Index>()),
        1..max_nodes,
    )
    .prop_map(|nodes| {
        nodes
            .into_iter()
            .enumerate()
            .map(|(i, (n, t, o, idx))| {
                let parent = if i == 0 { 0 } else { idx.index(i) };
                (n, t, o, parent)
            })
            .collect()
    })
}

fn build_schema(spec: &[(String, PrimitiveType, Occurs, usize)]) -> Schema {
    let mut schema = Schema::new("prop");
    let mut ids: Vec<NodeId> = Vec::with_capacity(spec.len());
    for (i, (name, ty, occurs, parent)) in spec.iter().enumerate() {
        let mut node = Node::element(name.clone());
        node.ty = *ty;
        node.occurs = *occurs;
        let id = if i == 0 {
            schema.add_root(node).unwrap()
        } else {
            schema.add_child(ids[*parent], node).unwrap()
        };
        ids.push(id);
    }
    schema
}

proptest! {
    #[test]
    fn random_schemas_validate(spec in tree_spec(40)) {
        let schema = build_schema(&spec);
        prop_assert!(schema.validate().is_ok());
        prop_assert_eq!(schema.len(), spec.len());
    }

    #[test]
    fn serialize_parse_roundtrip(spec in tree_spec(40)) {
        let schema = build_schema(&spec);
        let text = schema_to_string(&schema);
        let parsed = parse_schema(&text).unwrap();
        // The parser assigns arena ids in document order; the random
        // builder may interleave, so compare structurally and via the
        // canonical serialization.
        prop_assert!(parsed.structural_eq(&schema));
        prop_assert_eq!(schema_to_string(&parsed), text);
    }

    #[test]
    fn preorder_covers_every_node_once(spec in tree_spec(40)) {
        let schema = build_schema(&spec);
        let order = preorder(&schema);
        prop_assert_eq!(order.len(), schema.len());
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), schema.len());
        // Parents precede children in preorder.
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for id in schema.node_ids() {
            if let Some(p) = schema.node(id).parent {
                prop_assert!(pos[&p] < pos[&id]);
            }
        }
    }

    #[test]
    fn paths_resolve_consistently(spec in tree_spec(30)) {
        let schema = build_schema(&spec);
        for id in schema.node_ids() {
            let path = Path::of(&schema, id);
            prop_assert_eq!(path.len(), schema.depth(id) + 1);
            let resolved = path.resolve(&schema).unwrap();
            // Resolution picks the first node with the same path.
            prop_assert_eq!(Path::of(&schema, resolved), path);
        }
    }

    #[test]
    fn subtree_sizes_sum(spec in tree_spec(30)) {
        let schema = build_schema(&spec);
        let root = schema.root().unwrap();
        prop_assert_eq!(schema.subtree_size(root), schema.len());
        // Root subtree = 1 + sum of child subtrees.
        let sum: usize = schema.node(root).children.iter()
            .map(|&c| schema.subtree_size(c)).sum();
        prop_assert_eq!(schema.subtree_size(root), 1 + sum);
    }

    #[test]
    fn stats_are_consistent(spec in tree_spec(40)) {
        let schema = build_schema(&spec);
        let st = SchemaStats::of(&schema);
        prop_assert_eq!(st.node_count, schema.len());
        prop_assert!(st.leaf_count >= 1);
        prop_assert!(st.leaf_count <= st.node_count);
        prop_assert!(st.max_depth < st.node_count);
        prop_assert!(st.max_fanout < st.node_count.max(1));
    }

    #[test]
    fn occurs_spec_roundtrip(o in occurs()) {
        prop_assert_eq!(Occurs::from_spec(&o.to_string()), Some(o));
    }
}
