"""The paper's two SQL listings, verbatim, and the variants derived from them.

Plain strings with no import-time logic, so the report and the tests can
import them at no cost. Each listing has one verbatim text; every
variant is that text with one substitution.
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

LISTING_2 = """
SELECT source_id, target_id, target_name
FROM TABLE (SEM_MATCH(
    {?source_id dt:isMappedTo ?target_id .
    ?target_id rdf:type dm:Application1_Item .
    ?target_id rdf:type dm:Interface_Item .
    ?target_id dm:hasName ?target_name}
    SEM_MODELS('DWH_CURR'),
    SEM_RULEBASES('OWLPRIME'),
    SEM_ALIASES(
        SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'),
        SEM_ALIAS('dt', 'http://www.credit-suisse.com/dwh/mdm/data_transfer#')),
        null)
WHERE source_id = 'http://www.credit-suisse.com/dwh/client_information_id'
GROUP BY source_id, target_id, target_name
"""

#: the IRI Listing 2 binds; replace it to ask about another source
LISTING_2_SOURCE = "http://www.credit-suisse.com/dwh/client_information_id"

# The generated landscape's classes are not named Application1_*, so over
# it Listing 1 drops the per-application narrowing and Listing 2 narrows
# by hierarchy membership through the rdf:type join.
LISTING_1_LANDSCAPE = LISTING_1.replace(
    "?c rdfs:subClassOf dm:Application1_Item .\n    ?c rdfs:subClassOf dm:Interface_Item .\n    ",
    "",
)
LISTING_2_LANDSCAPE = LISTING_2.replace(
    "rdf:type dm:Application1_Item .\n    ?target_id rdf:type dm:Interface_Item .",
    "rdf:type ?c .",
)
