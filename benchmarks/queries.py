"""The paper's published queries, shared across the benchmark suite.

Plain strings with no fixture or import-time logic, so any bench (or
test) can import the query texts at no cost.
"""

LISTING_1 = """
SELECT class, object
FROM TABLE(
  SEM_MATCH(
    {?object rdf:type ?c .
    ?c rdfs:label ?class .
    ?c rdfs:subClassOf dm:Application1_Item .
    ?c rdfs:subClassOf dm:Interface_Item .
    ?object dm:hasName ?term} ,
    SEM_MODELS('DWH_CURR') ,
    SEM_RULEBASES('OWLPRIME') ,
    SEM_ALIASES( SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#') ,
                 SEM_ALIAS('owl', 'http://www.w3.org/2002/07/owl#')) ,
    null )
WHERE regexp_like(term, 'customer', 'i')
GROUP BY class, object
"""

# the same listing without the per-application narrowing, usable over the
# generated landscape (whose classes are not named Application1_*)
LISTING_1_LANDSCAPE = LISTING_1.replace(
    "?c rdfs:subClassOf dm:Application1_Item .\n    ?c rdfs:subClassOf dm:Interface_Item .\n    ",
    "",
)

# Listing 2's shape over the generated landscape: the bound-source
# lineage probe (the landscape's items are not named Application1_*, so
# the class narrowing is by hierarchy membership via the rdf:type join)
LINEAGE_TEMPLATE = """
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
