"""The synthetic bank IT landscape generator.

Generates a complete Figure 1 landscape into a
:class:`~repro.core.MetadataWarehouse`:

* the "Protégé-authored" base hierarchy (technical and business classes);
* applications with databases, schemas, tables, columns, users, roles,
  and interfaces;
* the three-area DWH pipeline of Figure 2 — per source application a
  staging file whose columns are mapped into integration entities and
  onward into data-mart reports, producing multi-hop
  ``(isMappedTo)*`` chains;
* the conceptual layer (domains, conceptual entities and attributes)
  bridging the business and technical worlds;
* DBpedia-style synonyms ("customer" ↔ "client" ↔ "partner");
* optionally the **extended scope** of Figure 9: log files, technical
  components (programming languages, third-party software), and data-
  governance ownership.

The generator writes triples through the same conventions as the core
managers, so the result passes Table I validation; it bypasses the
per-assertion manager checks for speed at paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.rdf.namespace import RDF
from repro.rdf.terms import IRI, Literal, Triple

from repro.core.model import World
from repro.core.schema import to_identifier
from repro.core.vocabulary import TERMS
from repro.core.warehouse import MetadataWarehouse
from repro.etl.dbpedia import SynonymThesaurus
from repro.synth.names import (
    NamePool,
    PROGRAMMING_LANGUAGES,
    ROLE_NAMES,
    THIRD_PARTY_SOFTWARE,
)

#: synonym pairs merged in from the DBpedia-style extract
DEFAULT_SYNONYMS = [
    ("customer", "client"),
    ("customer", "partner"),
    ("party", "partner"),
    ("transaction", "trade"),
    ("account", "deposit"),
    ("instrument", "security"),
]

DEFAULT_HOMONYMS = [
    ("bank", "river bank"),
    ("position", "job position"),
]


@dataclass(frozen=True)
class LandscapeConfig:
    """Size knobs for the generator. All presets are deterministic."""

    seed: int = 2009
    applications: int = 12
    tables_per_app: Tuple[int, int] = (2, 4)
    columns_per_table: Tuple[int, int] = (3, 8)
    dwh_source_fraction: float = 0.5
    marts: int = 2
    reports_per_mart: int = 3
    attributes_per_report: Tuple[int, int] = (3, 6)
    users: int = 10
    roles_per_app: Tuple[int, int] = (1, 3)
    interfaces_per_app: Tuple[int, int] = (0, 2)
    mapping_rule_fraction: float = 0.5
    mapping_condition_fraction: float = 0.3
    synonyms: bool = True
    extended_scope: bool = False
    log_files_per_app: Tuple[int, int] = (1, 2)

    @classmethod
    def tiny(cls, seed: int = 2009) -> "LandscapeConfig":
        """A handful of applications — unit-test sized."""
        return cls(
            seed=seed,
            applications=4,
            tables_per_app=(1, 2),
            columns_per_table=(2, 4),
            users=4,
            marts=1,
            reports_per_mart=2,
        )

    @classmethod
    def small(cls, seed: int = 2009) -> "LandscapeConfig":
        """Example/benchmark default (a few thousand triples)."""
        return cls(seed=seed)

    @classmethod
    def medium(cls, seed: int = 2009) -> "LandscapeConfig":
        return cls(
            seed=seed,
            applications=60,
            tables_per_app=(3, 6),
            columns_per_table=(5, 12),
            users=40,
            marts=4,
            reports_per_mart=5,
        )

    @classmethod
    def paper_scale(cls, seed: int = 2009) -> "LandscapeConfig":
        """Aims at the published ~130k nodes / ~1.2M edges per version."""
        return cls(
            seed=seed,
            applications=550,
            tables_per_app=(6, 10),
            columns_per_table=(12, 24),
            users=400,
            marts=12,
            reports_per_mart=10,
            attributes_per_report=(6, 12),
            extended_scope=True,
        )

    def with_extended_scope(self) -> "LandscapeConfig":
        """The Figure 9 variant of this configuration."""
        return replace(self, extended_scope=True)


@dataclass
class Landscape:
    """The generated landscape plus handles into it."""

    config: LandscapeConfig
    warehouse: MetadataWarehouse
    applications: List[IRI] = field(default_factory=list)
    source_applications: List[IRI] = field(default_factory=list)
    users: List[IRI] = field(default_factory=list)
    staging_columns: List[IRI] = field(default_factory=list)
    integration_columns: List[IRI] = field(default_factory=list)
    report_attributes: List[IRI] = field(default_factory=list)
    reports: List[IRI] = field(default_factory=list)
    domains: List[IRI] = field(default_factory=list)
    classes: Dict[str, IRI] = field(default_factory=dict)
    subject_area_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def graph(self):
        return self.warehouse.graph

    def summary(self) -> str:
        stats = self.warehouse.statistics()
        areas = ", ".join(f"{k}: {v}" for k, v in sorted(self.subject_area_counts.items()))
        return f"{stats.nodes} nodes, {stats.edges} edges ({areas})"


def generate_landscape(
    config: Optional[LandscapeConfig] = None,
    warehouse: Optional[MetadataWarehouse] = None,
) -> Landscape:
    """Generate a landscape into a (new by default) warehouse.

    The cyclic garbage collector is paused during generation: millions of
    small allocations with no cycles make gen-2 sweeps dominate the
    runtime otherwise (10x at paper scale).
    """
    import gc

    config = config or LandscapeConfig.small()
    generator = _Generator(config, warehouse or MetadataWarehouse())
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return generator.run()
    finally:
        if gc_was_enabled:
            gc.enable()


class _Generator:
    def __init__(self, config: LandscapeConfig, warehouse: MetadataWarehouse):
        self.config = config
        self.mdw = warehouse
        self.names = NamePool(config.seed)
        self.graph = warehouse.graph
        self.instance_ns = warehouse.facts.namespace
        self.landscape = Landscape(config=config, warehouse=warehouse)
        self.counts: Dict[str, int] = {}

    # -- low-level helpers -------------------------------------------------

    def count(self, subject_area: str, n: int = 1) -> None:
        self.counts[subject_area] = self.counts.get(subject_area, 0) + n

    def instance(
        self,
        name: str,
        classes,
        display_name: Optional[str] = None,
        area: Optional[IRI] = None,
        level: Optional[IRI] = None,
        belongs_to: Optional[IRI] = None,
    ) -> IRI:
        """Fast-path instance creation (same triples as FactManager)."""
        node = self.instance_ns.term(to_identifier(name))
        for cls in classes if isinstance(classes, (list, tuple)) else [classes]:
            self.graph.add(Triple(node, RDF.type, cls))
        self.graph.add(Triple(node, TERMS.has_name, Literal(display_name or name)))
        if area is not None:
            self.graph.add(Triple(node, TERMS.in_area, area))
        if level is not None:
            self.graph.add(Triple(node, TERMS.at_level, level))
        if belongs_to is not None:
            self.graph.add(Triple(node, TERMS.belongs_to, belongs_to))
        return node

    def service_levels(self, node: IRI, area: IRI) -> None:
        """Annotate freshness and quality per pipeline stage: staging is
        fresh but raw, integration is cleansed, marts are aggregated and
        audited — "different freshness, response time, and data quality
        guarantees" (Section I)."""
        if area == TERMS.area_inbound:
            grade = self.names.choice(["realtime", "intraday"])
            quality = 0.50 + self.names.random() * 0.25
        elif area == TERMS.area_integration:
            grade = "daily"
            quality = 0.75 + self.names.random() * 0.15
        else:
            grade = self.names.choice(["daily", "weekly"])
            quality = 0.90 + self.names.random() * 0.09
        self.graph.add(Triple(node, TERMS.freshness, Literal(grade)))
        self.graph.add(Triple(node, TERMS.quality_score, Literal(round(quality, 3))))

    def mapping(self, source: IRI, target: IRI) -> None:
        rule = None
        condition = None
        if self.names.random() < self.config.mapping_rule_fraction:
            rule = f"transform({self.names.choice(['cast', 'trim', 'lookup', 'merge', 'derive'])})"
        if self.names.random() < self.config.mapping_condition_fraction:
            condition = self.names.choice(
                ["country = 'CH'", "status = 'active'", "amount > 0", "segment = 'private'"]
            )
        self.mdw.facts.add_mapping(source, target, rule=rule, condition=condition)
        self.count("data flows")

    # -- orchestration ---------------------------------------------------------

    def run(self) -> Landscape:
        self.declare_base_hierarchy()
        self.generate_applications()
        self.generate_dwh()
        self.generate_conceptual_layer()
        if self.config.synonyms:
            self.generate_synonyms()
        if self.config.extended_scope:
            self.generate_extended_scope()
        self.landscape.subject_area_counts = dict(self.counts)
        return self.landscape

    # -- the authored hierarchy ---------------------------------------------------

    def declare_base_hierarchy(self) -> None:
        schema = self.mdw.schema
        classes = self.landscape.classes

        def declare(name, parents=None, world=World.TECHNICAL, label=None, area=None):
            cls = schema.declare_class(
                name, world=world, label=label, parents=parents, subject_area=area
            )
            classes[to_identifier(name)] = cls
            return cls

        item = declare("Item", area="Core")
        attr = declare("Attribute", parents=item)
        column = declare("Column", parents=attr)
        declare("Source Column", parents=attr, area="Data Definitions")
        declare("View Column", parents=column)
        declare("Report Attribute", parents=attr)
        entity = declare("Entity", parents=item)
        declare("Table", parents=entity)
        declare("File", parents=entity, area="Data Definitions")
        declare("View", parents=entity)
        declare("Report", parents=item)
        declare("Application", parents=item, area="Applications")
        interface_item = declare("Interface Item", parents=item)
        declare("Interface", parents=interface_item, area="Interfaces")
        declare("Database", parents=item, area="Databases")
        declare("Schema", parents=item, area="Data Definitions")
        declare("User", parents=item, area="Roles")
        declare("Role", parents=item, area="Roles")

        # business world (the hierarchy business users search with)
        concept = declare("Business Concept", parents=item, world=World.BUSINESS)
        party = declare("Party", parents=concept, world=World.BUSINESS)
        declare("Individual", parents=party, world=World.BUSINESS)
        declare("Institution", parents=party, world=World.BUSINESS)
        declare("Partner", parents=party, world=World.BUSINESS)
        declare("Client", parents=party, world=World.BUSINESS)
        declare("Customer", parents=party, world=World.BUSINESS)
        declare("Domain", parents=concept, world=World.BUSINESS)
        declare("Conceptual Entity", parents=[entity, concept], world=World.BUSINESS)
        declare(
            "Conceptual Attribute", parents=[attr, concept], world=World.BUSINESS
        )

        schema.declare_property("represents", world=World.TECHNICAL)
        schema.declare_property("uses", world=World.TECHNICAL)
        schema.declare_property("dataOwner", world=World.BUSINESS)

        if self.config.extended_scope:
            declare("Log File", parents=item, area="Logs")
            component = declare("Technical Component", parents=item, area="Components")
            declare("Programming Language", parents=component, area="Components")
            declare("Third Party Software", parents=component, area="Components")

    # -- applications ------------------------------------------------------------

    def generate_applications(self) -> None:
        c = self.landscape.classes
        config = self.config
        schema = self.mdw.schema

        for i in range(config.users):
            user = self.instance(f"user_{self.names.person(i)}", c["User"],
                                 display_name=self.names.person(i))
            self.landscape.users.append(user)
            self.count("users")

        for i in range(config.applications):
            app_name = self.names.application_name(i)
            # the per-application item class of Figure 3
            app_item_cls = schema.declare_class(
                f"{app_name}_item",
                parents=c["Item"],
                label=f"{app_name} Item",
                subject_area="Applications",
            )
            app = self.instance(app_name, c["Application"])
            self.landscape.applications.append(app)
            self.count("applications")

            database = self.instance(f"{app_name}_db", c["Database"], belongs_to=app)
            self.count("databases")
            schema_inst = self.instance(
                f"{app_name}_schema", c["Schema"], belongs_to=database
            )
            self.count("schemas")

            n_tables = self.names.randint(*config.tables_per_app)
            for t in range(n_tables):
                legacy = self.names.random() < 0.4
                table_name = (
                    self.names.legacy_table_name()
                    if legacy
                    else f"{app_name}_{self.names.entity()}_t{t}"
                )
                table = self.instance(
                    f"{app_name}_{table_name}",
                    [c["Table"], app_item_cls],
                    display_name=table_name,
                    belongs_to=schema_inst,
                    level=TERMS.level_physical,
                )
                self.count("tables")
                for col in range(self.names.randint(*config.columns_per_table)):
                    entity_word = self.names.entity()
                    column_name = self.names.column_name(entity_word)
                    self.instance(
                        f"{app_name}_{table_name}_{column_name}",
                        [c["Column"], app_item_cls],
                        display_name=column_name,
                        belongs_to=table,
                        level=TERMS.level_physical,
                    )
                    self.count("columns")

            self._generate_roles(app, app_name, i)
            self._generate_interfaces(app, app_name, i)

    #: default privileges per role name (the RolePrivileges property)
    ROLE_PRIVILEGES = {
        "business owner": ("read", "write", "approve"),
        "business user": ("read",),
        "administrator": ("read", "write", "admin"),
        "support": ("read",),
        "auditor": ("read", "audit"),
        "data steward": ("read", "write"),
    }

    def _generate_roles(self, app: IRI, app_name: str, index: int) -> None:
        c = self.landscape.classes
        n_roles = self.names.randint(*self.config.roles_per_app)
        role_names = ["business owner"] + self.names.sample(ROLE_NAMES[1:], max(0, n_roles - 1))
        for role_name in role_names[:n_roles] if n_roles else []:
            role = self.instance(
                f"role_{app_name}_{role_name}",
                c["Role"],
                display_name=role_name,
            )
            self.graph.add(Triple(role, TERMS.for_application, app))
            for privilege in self.ROLE_PRIVILEGES.get(role_name, ("read",)):
                self.graph.add(Triple(role, TERMS.has_privilege, Literal(privilege)))
            if self.landscape.users:
                user = self.names.choice(self.landscape.users)
                self.graph.add(Triple(user, TERMS.plays_role, role))
            self.count("roles")

    def _generate_interfaces(self, app: IRI, app_name: str, index: int) -> None:
        c = self.landscape.classes
        if len(self.landscape.applications) < 2:
            return
        for i in range(self.names.randint(*self.config.interfaces_per_app)):
            target = self.names.choice(self.landscape.applications)
            if target == app:
                continue
            interface = self.instance(
                f"{app_name}_if{i}",
                [c["Interface"], c["Interface_Item"]],
                belongs_to=app,
            )
            self.graph.add(Triple(interface, TERMS.feeds, target))
            self.graph.add(Triple(app, TERMS.feeds, target))
            self.count("interfaces")

    # -- the DWH pipeline (Figure 2) --------------------------------------------------

    def generate_dwh(self) -> None:
        c = self.landscape.classes
        config = self.config
        schema = self.mdw.schema

        base_applications = list(self.landscape.applications)
        dwh = self.instance("dwh_core", c["Application"], display_name="dwh_core")
        self.landscape.applications.append(dwh)
        self.count("applications")
        dwh_db = self.instance("dwh_core_db", c["Database"], belongs_to=dwh)
        staging_schema = self.instance(
            "dwh_staging_schema", c["Schema"], belongs_to=dwh_db
        )
        integration_schema = self.instance(
            "dwh_integration_schema", c["Schema"], belongs_to=dwh_db
        )
        self.count("databases")
        self.count("schemas", 2)

        dwh_view_column_cls = schema.declare_class(
            "dwh_core_view_column",
            parents=[c["View_Column"], c["Interface_Item"]],
            label="Column",
        )

        n_sources = max(1, int(len(base_applications) * config.dwh_source_fraction))
        sources = base_applications[:n_sources]
        self.landscape.source_applications = list(sources)

        # inbound / staging area: one source file per feeding application
        by_entity: Dict[str, List[IRI]] = {}
        for app in sources:
            app_local = app.local_name
            source_file = self.instance(
                f"{app_local}_feed",
                c["File"],
                belongs_to=staging_schema,
                area=TERMS.area_inbound,
                level=TERMS.level_physical,
            )
            self.count("files")
            # pick concrete columns of the application and stage them
            app_columns = self._columns_of_application(app)
            staged = self.names.sample(app_columns, max(2, len(app_columns) // 2))
            for app_column in staged:
                display = self._display_name(app_column)
                staging_column = self.instance(
                    f"{app_local}_feed_{display}",
                    c["Source_Column"],
                    display_name=display,
                    belongs_to=source_file,
                    area=TERMS.area_inbound,
                    level=TERMS.level_physical,
                )
                self.landscape.staging_columns.append(staging_column)
                self.service_levels(staging_column, TERMS.area_inbound)
                self.count("staging columns")
                self.mapping(app_column, staging_column)
                entity_word = display.rsplit("_", 1)[0]
                by_entity.setdefault(entity_word, []).append(staging_column)

        # integration area: one entity per business-entity word
        integration_by_entity: Dict[str, List[IRI]] = {}
        for entity_word, staged_columns in sorted(by_entity.items()):
            table = self.instance(
                f"dwh_int_{entity_word}",
                c["Table"],
                display_name=f"int_{entity_word}",
                belongs_to=integration_schema,
                area=TERMS.area_integration,
                level=TERMS.level_logical,
            )
            self.count("tables")
            for suffix_columns in _chunk(staged_columns, 4):
                display = self._display_name(suffix_columns[0])
                integration_column = self.instance(
                    f"dwh_int_{entity_word}_{display}",
                    [c["Column"], dwh_view_column_cls],
                    display_name=display,
                    belongs_to=table,
                    area=TERMS.area_integration,
                    level=TERMS.level_logical,
                )
                self.landscape.integration_columns.append(integration_column)
                integration_by_entity.setdefault(entity_word, []).append(integration_column)
                self.service_levels(integration_column, TERMS.area_integration)
                self.count("integration columns")
                for staging_column in suffix_columns:
                    self.mapping(staging_column, integration_column)

        # data marts: reports fed from integration columns
        integration_pool = self.landscape.integration_columns
        for m in range(config.marts):
            mart = self.instance(
                f"dwh_mart_{m}", c["Application"], display_name=f"dwh_mart_{m}"
            )
            self.count("applications")
            mart_schema = self.instance(
                f"dwh_mart_{m}_schema", c["Schema"], belongs_to=mart
            )
            self.count("schemas")
            for r in range(config.reports_per_mart):
                report = self.instance(
                    f"mart{m}_report_{r}",
                    c["Report"],
                    belongs_to=mart_schema,
                    area=TERMS.area_mart,
                    level=TERMS.level_conceptual,
                )
                self.landscape.reports.append(report)
                self.count("reports")
                if not integration_pool:
                    continue
                n_attrs = self.names.randint(*config.attributes_per_report)
                for source_column in self.names.sample(integration_pool, n_attrs):
                    display = self._display_name(source_column)
                    attr = self.instance(
                        f"mart{m}_report_{r}_{display}",
                        c["Report_Attribute"],
                        display_name=display,
                        belongs_to=report,
                        area=TERMS.area_mart,
                        level=TERMS.level_conceptual,
                    )
                    self.landscape.report_attributes.append(attr)
                    self.service_levels(attr, TERMS.area_mart)
                    self.count("report attributes")
                    self.mapping(source_column, attr)

    # -- conceptual layer ---------------------------------------------------------------

    def generate_conceptual_layer(self) -> None:
        c = self.landscape.classes
        represents = self.mdw.schema.namespace.represents
        seen_entities: Dict[str, IRI] = {}
        seen_attributes: Dict[str, IRI] = {}
        for column in self.landscape.integration_columns:
            display = self._display_name(column)
            entity_word = display.rsplit("_", 1)[0]
            domain = seen_entities.get(entity_word)
            if domain is None:
                domain = self.instance(
                    f"domain_{entity_word}",
                    c["Domain"],
                    display_name=f"{entity_word} domain",
                    level=TERMS.level_conceptual,
                )
                self.landscape.domains.append(domain)
                conceptual_entity = self.instance(
                    f"concept_{entity_word}",
                    c["Conceptual_Entity"],
                    display_name=entity_word,
                    belongs_to=domain,
                    level=TERMS.level_conceptual,
                )
                seen_entities[entity_word] = domain
                self.count("domains")
                self.count("conceptual entities")
            conceptual_attr = seen_attributes.get(display)
            if conceptual_attr is None:
                conceptual_attr = self.instance(
                    f"concept_attr_{display}",
                    c["Conceptual_Attribute"],
                    display_name=display,
                    belongs_to=domain,
                    level=TERMS.level_conceptual,
                )
                seen_attributes[display] = conceptual_attr
                self.count("conceptual attributes")
            self.graph.add(Triple(column, represents, conceptual_attr))

    def generate_synonyms(self) -> None:
        thesaurus = SynonymThesaurus()
        thesaurus.add_synonyms(DEFAULT_SYNONYMS)
        for a, b in DEFAULT_HOMONYMS:
            thesaurus.add_homonym(a, b)
        added = thesaurus.materialize(self.graph)
        self.count("synonym edges", added)

    # -- extended scope (Figure 9) ----------------------------------------------------------

    def generate_extended_scope(self) -> None:
        c = self.landscape.classes
        uses = self.mdw.schema.namespace.uses
        data_owner = self.mdw.schema.namespace.dataOwner

        language_instances = {
            lang: self.instance(f"lang_{lang}", c["Programming_Language"], display_name=lang)
            for lang in PROGRAMMING_LANGUAGES
        }
        software_instances = {
            s: self.instance(f"sw_{s}", c["Third_Party_Software"], display_name=s)
            for s in THIRD_PARTY_SOFTWARE
        }
        self.count("technical components", len(language_instances) + len(software_instances))

        for app in self.landscape.applications:
            app_local = app.local_name
            for i in range(self.names.randint(*self.config.log_files_per_app)):
                self.instance(
                    f"{app_local}_log_{i}",
                    c["Log_File"],
                    display_name=f"{app_local}.log.{i}",
                    belongs_to=app,
                    level=TERMS.level_physical,
                )
                self.count("log files")
            self.graph.add(
                Triple(app, uses, language_instances[self.names.choice(PROGRAMMING_LANGUAGES)])
            )
            self.graph.add(
                Triple(app, uses, software_instances[self.names.choice(THIRD_PARTY_SOFTWARE)])
            )
            self.count("component links", 2)

        for domain in self.landscape.domains:
            if self.landscape.users:
                owner = self.names.choice(self.landscape.users)
                self.graph.add(Triple(domain, data_owner, owner))
                self.count("governance links")

    # -- helpers --------------------------------------------------------------------

    def _columns_of_application(self, app: IRI) -> List[IRI]:
        """Columns two belongs_to hops under the application's schema."""
        graph = self.graph
        out: List[IRI] = []
        for database in graph.subjects(TERMS.belongs_to, app):
            for schema_inst in graph.subjects(TERMS.belongs_to, database):
                for table in graph.subjects(TERMS.belongs_to, schema_inst):
                    out.extend(graph.subjects(TERMS.belongs_to, table))
        return sorted(out, key=lambda t: t.sort_key())

    def _display_name(self, item: IRI) -> str:
        name = self.graph.value(item, TERMS.has_name, None)
        return name.lexical if isinstance(name, Literal) else item.local_name


def _chunk(items: List, size: int) -> List[List]:
    return [items[i : i + size] for i in range(0, len(items), size)]
