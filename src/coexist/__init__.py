"""Radar/WiFi spectrum-sharing coexistence analysis.

Building blocks for sharing studies between a rotating pulsed radar and
secondary wideband transmitters: radar detection budgets (Albersheim SNR
requirements, scan-integrated SNR), interference budgets and keep-out
distances for a single transmitter, aggregate-interference statistics and
protection contours for Poisson deployments, and WiFi-side throughput
under radar strobes.  The ``coexist`` CLI drives the same library from
JSON scenario files.  Each name is imported from the module that defines it.
"""

# config binds every record's schema check, so a record built after importing
# any one module refuses what the schema refuses
from . import config, numerics

__version__ = "0.1.0"

# The Poisson-field (with its Monte Carlo kernel) and WiFi modules are run at
# their first attribute access: importing the package, loading a scenario and
# the single-radar commands never need them.
protection_multi = numerics.lazy_module(__name__ + ".protection_multi")
wifi_link = numerics.lazy_module(__name__ + ".wifi_link")
