"""Unit tests for schema declarations and hierarchy navigation."""

import pytest

from repro.core import MetadataWarehouse, SchemaError, World
from repro.core.schema import to_identifier
from repro.rdf import IRI, Literal, RDFS


@pytest.fixture
def mdw():
    return MetadataWarehouse()


class TestIdentifiers:
    def test_spaces_to_underscores(self):
        assert to_identifier("Source File Column") == "Source_File_Column"

    def test_specials_collapsed(self):
        assert to_identifier("a--b!!c") == "a_b_c"

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            to_identifier("!!!")


class TestDeclareClass:
    def test_basic(self, mdw):
        cls = mdw.schema.declare_class("Customer")
        assert mdw.schema.is_class(cls)
        assert mdw.schema.label(cls) == "Customer"

    def test_world_recorded(self, mdw):
        cls = mdw.schema.declare_class("Customer", world=World.BUSINESS)
        assert mdw.schema.world(cls) is World.BUSINESS
        tech = mdw.schema.declare_class("Table")
        assert mdw.schema.world(tech) is World.TECHNICAL

    def test_display_name_with_spaces(self, mdw):
        cls = mdw.schema.declare_class("Source File Column")
        assert cls.local_name == "Source_File_Column"
        assert mdw.schema.label(cls) == "Source File Column"

    def test_parents(self, mdw):
        party = mdw.schema.declare_class("Party")
        individual = mdw.schema.declare_class("Individual", parents=party)
        assert mdw.hierarchy.is_subclass_of(individual, party)

    def test_parent_list(self, mdw):
        a = mdw.schema.declare_class("A")
        b = mdw.schema.declare_class("B")
        c = mdw.schema.declare_class("C", parents=[a, b])
        assert mdw.hierarchy.superclasses(c) == {a, b}

    def test_redeclare_extends(self, mdw):
        mdw.schema.declare_class("Customer")
        parent = mdw.schema.declare_class("Party")
        again = mdw.schema.declare_class("Customer", parents=parent)
        assert mdw.hierarchy.is_subclass_of(again, parent)

    def test_subject_area(self, mdw):
        cls = mdw.schema.declare_class("Interface", subject_area="Data Flows")
        assert mdw.validate().conformant

    def test_undeclared_parent_becomes_class(self, mdw):
        child = mdw.schema.declare_class("Child")
        ghost = mdw.schema.namespace.Ghost
        mdw.schema.add_subclass(child, ghost)
        assert mdw.schema.is_class(ghost)

    def test_self_parent_rejected(self, mdw):
        cls = mdw.schema.declare_class("C")
        with pytest.raises(SchemaError):
            mdw.schema.add_subclass(cls, cls)

    def test_class_by_label(self, mdw):
        cls = mdw.schema.declare_class("Source Column")
        assert mdw.schema.class_by_label("Source Column") == cls
        assert mdw.schema.class_by_label("Nope") is None

    def test_classes_sorted(self, mdw):
        mdw.schema.declare_class("Zeta")
        mdw.schema.declare_class("Alpha")
        names = [c.local_name for c in mdw.schema.classes()]
        assert names == sorted(names)


class TestDeclareProperty:
    def test_basic(self, mdw):
        prop = mdw.schema.declare_property("hasName")
        assert mdw.schema.is_property(prop)

    def test_domain(self, mdw):
        cls = mdw.schema.declare_class("Customer")
        prop = mdw.schema.declare_property("hasName", domain=cls)
        assert mdw.schema.domain_of(prop) == [cls]
        assert mdw.schema.properties_of(cls) == [prop]

    def test_multiple_domains(self, mdw):
        a = mdw.schema.declare_class("A")
        b = mdw.schema.declare_class("B")
        prop = mdw.schema.declare_property("p", domain=[a, b])
        assert mdw.schema.domain_of(prop) == sorted([a, b], key=lambda c: c.value)

    def test_subproperty(self, mdw):
        parent = mdw.schema.declare_property("hasName")
        child = mdw.schema.declare_property("hasFirstName", parents=parent)
        assert mdw.hierarchy.is_subproperty_of(child, parent)

    def test_name_clash_with_class_rejected(self, mdw):
        mdw.schema.declare_class("Customer")
        with pytest.raises(SchemaError):
            mdw.schema.declare_property("Customer")

    def test_range(self, mdw):
        target = mdw.schema.declare_class("Account")
        prop = mdw.schema.declare_property("owns", range_=target)
        assert (prop, RDFS.range, target) in mdw.graph

    def test_self_superproperty_rejected(self, mdw):
        p = mdw.schema.declare_property("p")
        with pytest.raises(SchemaError):
            mdw.schema.add_subproperty(p, p)


class TestHierarchy:
    @pytest.fixture
    def classes(self, mdw):
        item = mdw.schema.declare_class("Item")
        attr = mdw.schema.declare_class("Attribute", parents=item)
        col = mdw.schema.declare_class("Column", parents=attr)
        src = mdw.schema.declare_class("SourceColumn", parents=col)
        other = mdw.schema.declare_class("Other", parents=item)
        return dict(item=item, attr=attr, col=col, src=src, other=other)

    def test_superclasses_transitive(self, mdw, classes):
        assert mdw.hierarchy.superclasses(classes["src"]) == {
            classes["col"],
            classes["attr"],
            classes["item"],
        }

    def test_subclasses_transitive(self, mdw, classes):
        assert mdw.hierarchy.subclasses(classes["item"]) == {
            classes["attr"],
            classes["col"],
            classes["src"],
            classes["other"],
        }

    def test_include_self(self, mdw, classes):
        assert classes["src"] in mdw.hierarchy.superclasses(classes["src"], include_self=True)
        assert classes["src"] not in mdw.hierarchy.superclasses(classes["src"])

    def test_direct_only(self, mdw, classes):
        assert mdw.hierarchy.direct_superclasses(classes["src"]) == [classes["col"]]
        assert mdw.hierarchy.direct_subclasses(classes["item"]) == sorted(
            [classes["attr"], classes["other"]], key=lambda c: c.value
        )

    def test_is_subclass_of_reflexive(self, mdw, classes):
        assert mdw.hierarchy.is_subclass_of(classes["src"], classes["src"])
        assert mdw.hierarchy.is_subclass_of(classes["src"], classes["item"])
        assert not mdw.hierarchy.is_subclass_of(classes["item"], classes["src"])

    def test_roots(self, mdw, classes):
        assert mdw.hierarchy.class_roots() == [classes["item"]]

    def test_depth(self, mdw, classes):
        assert mdw.hierarchy.depth(classes["item"]) == 0
        assert mdw.hierarchy.depth(classes["src"]) == 3

    def test_cycle_tolerated(self, mdw):
        a = mdw.schema.declare_class("CycleA")
        b = mdw.schema.declare_class("CycleB")
        mdw.schema.add_subclass(a, b)
        mdw.schema.add_subclass(b, a)
        assert a in mdw.hierarchy.superclasses(a)  # reachable through the cycle
        assert mdw.hierarchy.depth(a) >= 1

    def test_least_common_subsumers(self, mdw, classes):
        lcs = mdw.hierarchy.least_common_subsumers(classes["src"], classes["other"])
        assert lcs == [classes["item"]]
        lcs2 = mdw.hierarchy.least_common_subsumers(classes["src"], classes["col"])
        assert lcs2 == [classes["col"]]

    def test_instances_of_through_hierarchy(self, mdw, classes):
        inst = mdw.facts.add_instance("x", classes["src"])
        assert inst in mdw.hierarchy.instances_of(classes["item"])
        assert inst not in mdw.hierarchy.instances_of(classes["item"], direct=True)

    def test_classes_of_multiple_inheritance(self, mdw, classes):
        inst = mdw.facts.add_instance("multi", [classes["src"], classes["other"]])
        found = mdw.hierarchy.classes_of(inst)
        assert classes["item"] in found
        assert classes["other"] in found
        assert mdw.hierarchy.classes_of(inst, direct=True) == {
            classes["src"],
            classes["other"],
        }
