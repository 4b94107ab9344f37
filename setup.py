"""Setup shim.

Kept deliberately minimal so that ``pip install -e .`` works in offline
environments whose setuptools lacks the ``wheel`` package required by
PEP 660 editable installs.
"""

from setuptools import setup

setup()
