"""The JSON text of every report: sorted keys and compact separators, so
identical inputs give byte-identical output.  The fan and ring reports
assemble their entries from pieces this encoder made once each.
"""

import json

dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
