"""Standalone end-to-end benchmark of the MEGA reproduction (see README.md)."""
