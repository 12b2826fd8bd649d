"""Networked proof-of-work blockchain simulator."""

__version__ = "0.1.0"
