"""CrowdDB reproduction.

A crowd-enabled SQL database after *CrowdDB: Query Processing with the
VLDB Crowd* (VLDB 2011 demo): CrowdSQL compilation, a rule-based
optimizer with crowd operators and boundedness analysis, schema-driven UI
generation, a Task Manager, a Worker Relationship Manager, and two
simulated crowdsourcing platforms (Amazon Mechanical Turk and a
locality-aware mobile platform).
"""

from repro.api import Connection, Cursor, connect, serve
from repro.crowd.reputation import ReputationStore
from repro.crowd.future import CrowdFuture
from repro.crowd.task_manager import CrowdConfig
from repro.engine.executor import ResultSet
from repro.net import NetClient, NetworkServer, connect_tcp, serve_tcp
from repro.server import Server
from repro.sqltypes import CNULL, NULL

__version__ = "1.4.0"

__all__ = [
    "CNULL",
    "NULL",
    "Connection",
    "CrowdConfig",
    "CrowdFuture",
    "Cursor",
    "NetClient",
    "NetworkServer",
    "ReputationStore",
    "ResultSet",
    "Server",
    "connect",
    "connect_tcp",
    "serve",
    "serve_tcp",
    "__version__",
]
