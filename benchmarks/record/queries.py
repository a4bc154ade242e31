"""Private copies of the query texts the benchmark of record replays.

Deliberately *not* imported from ``benchmarks/queries.py`` or
``repro.synth.workload``: a later change must not be able to alter the
measured load by editing a file outside this directory.
"""

#: Listing 1 of the paper over the generated landscape (whose classes are
#: not named Application1_*, so the per-application subClassOf narrowing
#: is dropped): every typed, named object with its class label, filtered
#: by a case-insensitive ``regexp_like`` on the name. ``{term}`` rotates.
LISTING_1 = """
SELECT class, object
FROM TABLE(
  SEM_MATCH(
    {{?object rdf:type ?c .
    ?c rdfs:label ?class .
    ?object dm:hasName ?term}} ,
    SEM_MODELS('DWH_CURR') ,
    SEM_RULEBASES('OWLPRIME') ,
    SEM_ALIASES( SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#') ,
                 SEM_ALIAS('owl', 'http://www.w3.org/2002/07/owl#')) ,
    null )
WHERE regexp_like(term, '{term}', 'i')
GROUP BY class, object
"""

#: Listing 2's shape: the bound-source lineage probe (one mapping hop
#: from ``{source}``, with the target's type and name).
LISTING_2 = """
SELECT source_id, target_id, target_name
FROM TABLE (SEM_MATCH(
    {{?source_id dt:isMappedTo ?target_id .
    ?target_id rdf:type ?c .
    ?target_id dm:hasName ?target_name}}
    SEM_MODELS('DWH_CURR'),
    SEM_RULEBASES('OWLPRIME'),
    SEM_ALIASES(
        SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'),
        SEM_ALIAS('dt', 'http://www.credit-suisse.com/dwh/mdm/data_transfer#')),
        null)
WHERE source_id = '{source}'
GROUP BY source_id, target_id, target_name
"""

#: The served mix's ``sql`` kind: Listing 1 without the class join, no
#: rulebase — a name scan with a regexp filter.
SERVED_SQL = """
    SELECT object FROM TABLE(SEM_MATCH(
        {{?object dm:hasName ?term}},
        SEM_MODELS('DWH_CURR'),
        null,
        SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#')),
        null))
    WHERE regexp_like(term, '{term}', 'i')
    GROUP BY object
"""

#: The served mix's ``query`` kind: one mapping hop upstream of a named
#: item, as SPARQL.
ONE_HOP_SPARQL = """
    SELECT ?source ?sourceName WHERE {{
        ?item dm:hasName "{name}" .
        ?source dt:isMappedTo ?item .
        ?source dm:hasName ?sourceName .
    }}
"""

#: The periodic schema-browsing query of the served mix.
SCHEMA_GROUP_BY = (
    "SELECT ?class (COUNT(?item) AS ?n) WHERE "
    "{ ?item rdf:type ?class } GROUP BY ?class ORDER BY ?class"
)
