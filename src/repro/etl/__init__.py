"""The Figure 4 import pipeline.

"Since most of Credit Suisse's meta-data are available either as XML
files or in a format that can easily be converted into XML, the very
first step [...] is to transform it into RDF. [...] The meta-data
hierarchies are designed and maintained in Protégé. They are exported
from this tool as an ontology file and inserted as RDF triples into the
same staging tables as the meta-data facts."

* :mod:`repro.etl.xml_source` — the XML meta-data feed format;
* :mod:`repro.etl.transformer` — XML → RDF staging rows;
* :mod:`repro.etl.ontology_io` — ontology-file export/import (the
  Protégé round-trip);
* :mod:`repro.etl.dbpedia` — synonym/homonym thesaurus integration;
* :mod:`repro.etl.pipeline` — the orchestrator running the whole flow
  as one release load (transform → stage → converge → validate →
  refresh indexes).
"""

from repro.etl.xml_source import (
    InstanceSpec,
    MetadataDocument,
    XmlSourceError,
    parse_metadata_xml,
)
from repro.etl.transformer import XmlToRdfTransformer
from repro.etl.ontology_io import export_ontology, import_ontology
from repro.etl.dbpedia import SynonymThesaurus, load_thesaurus_ntriples
from repro.etl.pipeline import EtlOrchestrator, ReleaseLoadResult

__all__ = [
    "EtlOrchestrator",
    "InstanceSpec",
    "ReleaseLoadResult",
    "MetadataDocument",
    "SynonymThesaurus",
    "XmlSourceError",
    "XmlToRdfTransformer",
    "export_ontology",
    "import_ontology",
    "load_thesaurus_ntriples",
    "parse_metadata_xml",
]
